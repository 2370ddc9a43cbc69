// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates a workload's traces from a seed, computes their
// reference verdicts with independent engines, boots the aerodromed
// backend behind the shard router in-process, and then times calls into
// the public functions of rapidio, pipeline, core, parcheck, race and
// server for a fixed number of seconds, checking every verdict.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads and the metric-to-layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A run sets up at least minSetups times, and keeps setting up until
// setupTime has passed or it has set up maxSetups times, so setup_s is a
// median over enough repetitions to be steady even where one set-up
// takes milliseconds.
const (
	minSetups = 3
	maxSetups = 15
	setupTime = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tally counts attempted and failed operations of a run. A mismatch is a
// failure whose verdict disagreed with the reference.
type tally struct {
	attempted, failed, mismatched atomic.Int64
	mu                            sync.Mutex
	errs                          []string
}

func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	var m *errMismatch
	if errors.As(err, &m) {
		t.mismatched.Add(1)
	}
	t.mu.Lock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit, note: note}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	out      string
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	fl.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fl.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fl.IntVar(&o.seconds, "seconds", 20, "measuring time in seconds")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fl.StringVar(&o.root, "root", ".", "repository root (used for the source hash in the run header)")
	fl.StringVar(&o.out, "out", ".bench_build", "directory for generated inputs and span files")
	fl.StringVar(&o.commit, "commit", "none", "commit recorded in the run header")
	var c childArgs
	fl.StringVar(&c.path, "child", "", "internal: check this file once in this process and print the result")
	fl.StringVar(&c.format, "child-format", formatSTD, "internal: format of the -child file")
	fl.StringVar(&c.mode, "child-mode", modeSeq, "internal: CLI path of the -child check")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if c.path != "" {
		return runChild(c, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := bench(o, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setupTimes are the per-repetition parts of set-up.
type setupTimes struct {
	gen, boot, total []float64
}

func bench(o options, w workloadSpec, stdout io.Writer) (result, error) {
	dir := filepath.Join(o.out, "inputs", w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	var tr *Tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	set := newInputSet(w, o.seed, dir)

	// Set-up is everything before the first timed call: generating the
	// inputs, writing them, and booting the backend and router until
	// healthy. It is repeated so setup_s is a median; the last stack
	// booted is the one measured.
	var su setupTimes
	var st *stack
	setupStart := time.Now()
	for i := 0; ; i++ {
		sp := tr.Start(0, "setup", "")
		g := tr.Start(sp.ID(), "workload.gen", "")
		start := time.Now()
		err := set.generate()
		gen := time.Since(start)
		g.End()
		if err != nil {
			return result{}, err
		}
		b := tr.Start(sp.ID(), "server.boot", "")
		start = time.Now()
		s, err := boot()
		bootT := time.Since(start)
		b.End()
		sp.End()
		if err != nil {
			return result{}, fmt.Errorf("booting the service: %w", err)
		}
		su.gen = append(su.gen, gen.Seconds())
		su.boot = append(su.boot, bootT.Seconds())
		su.total = append(su.total, (gen + bootT).Seconds())
		if i+1 >= maxSetups || (i+1 >= minSetups && time.Since(setupStart) >= setupTime) {
			st = s
			break
		}
		s.Close()
	}
	defer st.Close()
	set.reference()

	header := runHeader(o, set)
	for _, k := range sortedKeys(header) {
		fmt.Fprintf(stdout, "# %s: %v\n", k, header[k])
	}

	t := &tally{}
	steal0 := hostStealSeconds()
	budget := time.Duration(o.seconds) * time.Second
	ref := newRefWork(runtime.GOMAXPROCS(0))
	var m metrics
	var err error
	if o.trace == 0 {
		var run e2e
		run, err = endToEnd(w, set, st, budget, ref, nil, t)
		m = run.m
		if err == nil {
			m.set("setup_s", median(su.total), "s", fmt.Sprintf("median of %d set-ups", len(su.total)))
			fmt.Fprintf(stdout, "# reference: median %.2f ms on one thread, %.2f ms on %d at once, metrics scaled to %v\n",
				run.refMs, run.refAllMs, len(ref.parts), refNominal)
			for _, k := range sortedKeys(run.raw) {
				fmt.Fprintf(stdout, "# raw %-26s %14.6g %s\n", k, run.raw[k].Value, run.raw[k].Unit)
			}
		}
	} else {
		m, err = layered(w, set, st, budget, ref, tr, t, su, stdout)
		if err == nil {
			path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
			if werr := tr.WriteFile(path, header); werr != nil {
				return result{}, werr
			}
			fmt.Fprintf(stdout, "# spans: %s\n", path)
		}
	}
	if err != nil {
		return result{}, err
	}
	// Time the hypervisor gave this VM's CPUs to others while the run
	// measured; runs that saw much of it are slower for reasons outside
	// the program.
	fmt.Fprintf(stdout, "# host_steal_s: %.2f\n", hostStealSeconds()-steal0)
	for _, k := range sortedKeys(m) {
		v := m[k]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("metric %s has no value (%s)", k, v.note)
		}
		fmt.Fprintf(stdout, "%-30s %14.6g %-6s %s\n", k, v.Value, v.Unit, v.note)
	}
	att, failed, mism := t.attempted.Load(), t.failed.Load(), t.mismatched.Load()
	for _, e := range t.errs {
		fmt.Fprintf(stdout, "! %s\n", e)
	}
	frac := 0.0
	if att > 0 {
		frac = float64(failed) / float64(att)
	}
	fmt.Fprintf(stdout, "%-30s %14.6g %-6s %d failed (%d wrong verdicts) of %d attempted\n",
		"failed_frac", frac, "ratio", failed, mism, att)
	if att == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	return result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: m}, nil
}

// e2e is one measurement of the end-to-end paths: the metrics, the raw
// figures they were scaled from, and what the traced run derives
// per-layer metrics from.
type e2e struct {
	m        metrics
	raw      metrics
	refMs    float64 // median reference time of the run, one thread
	refAllMs float64 // the same on every CPU at once
	files    fileResult
	clients  *clients
}

// endToEnd measures the user-visible metrics for budget: first the files
// through the three CLI paths, then the two HTTP clients. Every timed
// metric is reported at the reference speed (ref.go).
func endToEnd(w workloadSpec, set inputSet, st *stack, budget time.Duration, ref *refWork, tr *Tracer, t *tally) (e2e, error) {
	fileBudget := time.Duration(float64(budget) * w.fileShare)
	fr, err := runFiles(set.files, fileBudget, 3, ref, tr, t)
	if err != nil {
		return e2e{}, err
	}
	c, err := newClients(tr, w.name, append(append([]*input(nil), set.checks...), set.sessions...))
	if err != nil {
		return e2e{}, err
	}
	sr := runServe(st, c, set.checks, set.sessions, budget-fileBudget, ref, t)
	m, raw := metrics{}, metrics{}
	m.set("peak_rss_mb", fr.peakMB, "MB", "largest VmHWM of a child process checking one file through one path")
	for _, mode := range fileModes {
		m.set(mode+"_norm_mev_s", median(fr.norm[mode]), "Mev/s", fmt.Sprintf("median of %d rounds %.4g", fr.rounds, fr.norm[mode]))
		raw.set(mode+"_mev_s", median(fr.mevs[mode]), "Mev/s", fmt.Sprintf("median of %d rounds", fr.rounds))
	}
	// The serve metrics are medians over the turns of the serve phase,
	// each turn scaled by the reference times around it, so a burst of
	// host contention spoils a turn, not the run.
	var p50s, p90s, rawMs []float64
	n := 0
	streamT := map[*input][]float64{} // session seconds net of steal, at the reference speed
	rawT := map[*input][]float64{}
	for k, tn := range sr.turns {
		host := hostFactor((sr.refs[k].all + sr.refs[k+1].all) / 2)
		var ms []float64
		for _, iv := range tn.checks {
			ms = append(ms, float64(iv.own)/1e6/host)
			rawMs = append(rawMs, float64(iv.wall)/1e6)
		}
		p50, _ := percentile(ms, 50)
		p90, _ := percentile(ms, 90)
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		n += len(ms)
		if tn.session != nil {
			streamT[tn.session] = append(streamT[tn.session], tn.streamT.own.Seconds()/host)
			rawT[tn.session] = append(rawT[tn.session], tn.streamT.wall.Seconds())
		}
	}
	m.set("check_norm_p50_ms", median(p50s), "ms", fmt.Sprintf("median over %d turns, %d checks via the router", len(sr.turns), n))
	m.set("check_norm_p90_ms", median(p90s), "ms", fmt.Sprintf("median over %d turns, %d checks via the router", len(sr.turns), n))
	// Session throughput is that of streaming each session payload once,
	// from each payload's median session time: a median over all sessions
	// would pick whichever payload sat in the middle, and a plain sum would
	// weigh the payloads by how many turns each happened to get.
	var bytes, secs, rawSecs float64
	for in, ts := range streamT {
		bytes += float64(len(c.payloads[in]))
		secs += median(ts)
		rawSecs += median(rawT[in])
	}
	m.set("session_norm_mb_s", bytes/1e6/secs, "MB/s", fmt.Sprintf("%d session payloads over %d turns", len(streamT), len(sr.turns)))
	raw.set("session_mb_s", bytes/1e6/rawSecs, "MB/s", "")
	p50, _ := percentile(rawMs, 50)
	p90, _ := percentile(rawMs, 90)
	raw.set("check_p50_ms", p50, "ms", "")
	raw.set("check_p90_ms", p90, "ms", "")
	var refOne, refAll []float64
	for _, r := range append(append([]refTimes(nil), fr.refs...), sr.refs...) {
		refOne, refAll = append(refOne, r.one), append(refAll, r.all)
	}
	return e2e{m: m, raw: raw, refMs: median(refOne) * 1000, refAllMs: median(refAll) * 1000, files: fr, clients: c}, nil
}

// runHeader identifies the machine, the toolchain, the code and the
// inputs of a run.
func runHeader(o options, set inputSet) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"source":     sourceHash(o.root),
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	var ev, by int64
	for _, in := range set.all() {
		ev += in.events
		by += in.bytes
		h["input "+in.spec.name] = fmt.Sprintf("%s, %d events, %d bytes, %d threads, reference %v",
			in.spec.format, in.events, in.bytes, in.threads, in.want)
	}
	h["inputs"] = fmt.Sprintf("%d files, %d events, %d bytes", len(set.all()), ev, by)
	return h
}

// sourceHash digests every go.mod and .go file under root, skipping
// hidden directories, so runs of the same code can be matched without a
// git checkout.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostStealSeconds is the CPU time stolen from this machine by its
// hypervisor since boot, summed over CPUs, from /proc/stat (in USER_HZ
// ticks of 1/100 s); 0 where it is not reported.
func hostStealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
