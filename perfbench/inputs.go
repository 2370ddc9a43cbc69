package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"aerodrome/internal/core"
	"aerodrome/internal/race"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
	"aerodrome/internal/velodrome"
	"aerodrome/internal/workload"
)

const (
	formatSTD = "std"
	formatBin = "bin"
	// hbrace is the analysis set that adds happens-before race detection
	// to the atomicity check.
	hbrace = "atomicity,hbrace"
)

// inputSpec describes one generated trace: its event source for a seed,
// the file format it is written in, and, for sessions, the analysis set
// the session asks for.
type inputSpec struct {
	name     string
	format   string
	analyses string
	source   func(seed int64) trace.Source
}

// workloadSpec is one benchmark workload. Every workload runs every
// end-to-end path on inputs of its own shape: files go through the CLI's
// sequential, -pipeline and -par 2 paths; checks are posted to /v1/check
// and sessions are streamed through the router. fileShare is the part of
// the measuring time spent on files, the rest on the two HTTP clients.
type workloadSpec struct {
	name      string
	files     []inputSpec
	checks    []inputSpec
	sessions  []inputSpec
	fileShare float64
}

// input is a generated trace on disk and its reference verdict.
type input struct {
	spec    inputSpec
	path    string
	seed    int64
	bytes   int64
	events  int64
	threads int
	want    Verdict
	// race is the hbrace reference, set only for inputs whose analysis
	// set includes it.
	race *Verdict
}

func generated(cfg workload.Config) func(int64) trace.Source {
	return func(seed int64) trace.Source {
		c := cfg
		c.Seed = seed
		return workload.New(c)
	}
}

// grid is the thread-scaling shape of the repository's own bench grid
// (sharded and chain patterns, 8192 variables, 32 locks, half the rounds
// in transactions).
func grid(p workload.Pattern, threads int, events int64) workload.Config {
	return workload.Config{
		Threads: threads, Vars: 8192, Locks: 32, Events: events, OpsPerTxn: 4,
		Pattern: p, TxnFraction: 0.5, Inject: workload.ViolationNone,
	}
}

// mixed is a small trace of one generator pattern, optionally carrying
// an injected violation.
func mixed(p workload.Pattern, threads int, events int64, inject workload.Violation, at float64) workload.Config {
	return workload.Config{
		Threads: threads, Vars: 2048, Locks: 16, Events: events, OpsPerTxn: 4,
		Pattern: p, TxnFraction: 0.5, Inject: inject, InjectAt: at, AbsorbEvery: 8,
	}
}

func spec(name, format string, cfg workload.Config) inputSpec {
	return inputSpec{name: name, format: format, source: generated(cfg)}
}

func specs(prefix, format string, n int, cfg workload.Config) []inputSpec {
	out := make([]inputSpec, n)
	for i := range out {
		out[i] = spec(fmt.Sprintf("%s-%d", prefix, i), format, cfg)
	}
	return out
}

func wideSpec(name string, threads int) inputSpec {
	return inputSpec{name: name, format: formatSTD, source: func(seed int64) trace.Source {
		return newWide(seed, threads, 4)
	}}
}

// serveMixedChecks are ~1 MB traces of eight generator patterns; three
// carry an injected violation of a different kind each.
var serveMixedChecks = []inputSpec{
	spec("hub-t8", formatSTD, mixed(workload.PatternHub, 8, 75_000, workload.ViolationNone, 0)),
	spec("chain-t16-cross", formatSTD, mixed(workload.PatternChain, 16, 75_000, workload.ViolationCross, 0.6)),
	spec("sharded-t32", formatSTD, mixed(workload.PatternSharded, 32, 75_000, workload.ViolationNone, 0)),
	spec("prodcons-t8", formatSTD, mixed(workload.PatternProducerConsumer, 8, 75_000, workload.ViolationNone, 0)),
	spec("barrier-t16-delayed", formatSTD, mixed(workload.PatternBarrier, 16, 75_000, workload.ViolationDelayed, 0.7)),
	spec("convoy-t8", formatSTD, mixed(workload.PatternConvoy, 8, 75_000, workload.ViolationNone, 0)),
	spec("phase-t16", formatSTD, mixed(workload.PatternPhase, 16, 75_000, workload.ViolationNone, 0)),
	spec("chain-t32-lock", formatSTD, mixed(workload.PatternChain, 32, 75_000, workload.ViolationLock, 0.8)),
}

var workloads = []workloadSpec{
	{
		// Thread-private checks are cheap, so rapidio parsing, pipeline
		// hand-off and parcheck partitioning set the cost.
		name: "ingest-sharded",
		files: []inputSpec{
			spec("sharded-t64", formatSTD, grid(workload.PatternSharded, 64, 500_000)),
		},
		checks:    specs("check-sharded-t64", formatSTD, 4, grid(workload.PatternSharded, 64, 40_000)),
		sessions:  specs("session-sharded-t64", formatSTD, 2, grid(workload.PatternSharded, 64, 500_000)),
		fileShare: 0.5,
	},
	{
		// A token crosses 256 threads, so core clock joins dominate, and
		// parcheck must fall back to a sequential replay.
		name: "engine-chain",
		files: []inputSpec{
			spec("chain-t256", formatBin, grid(workload.PatternChain, 256, 300_000)),
		},
		checks:    specs("check-chain-t256", formatBin, 4, grid(workload.PatternChain, 256, 8_000)),
		sessions:  specs("session-chain-t256", formatBin, 2, grid(workload.PatternChain, 256, 200_000)),
		fileShare: 0.5,
	},
	{
		// Engine state grows with the square of the thread count, so state
		// size, not per-event work, sets the cost.
		name: "wide-threads",
		files: []inputSpec{
			wideSpec("wide-2048", 2048),
		},
		// Checks as wide as the sessions: a 512-thread check takes ~8 ms,
		// and at that length one slice of CPU time taken by the host
		// doubles a check, so check_norm_p90_ms measured the host.
		checks:    []inputSpec{wideSpec("check-wide-1024-0", 1024), wideSpec("check-wide-1024-1", 1024)},
		sessions:  []inputSpec{wideSpec("session-wide-1024-0", 1024), wideSpec("session-wide-1024-1", 1024)},
		fileShare: 0.6,
	},
	{
		// Small engine work per request, so HTTP handling, proxying and
		// session feeding show.
		name:   "serve-mixed",
		files:  serveMixedChecks,
		checks: serveMixedChecks,
		sessions: []inputSpec{
			spec("session-chain-t16", formatSTD, mixed(workload.PatternChain, 16, 600_000, workload.ViolationNone, 0)),
			{name: "session-sharded-t32-hbrace", format: formatSTD, analyses: hbrace,
				source: generated(mixed(workload.PatternSharded, 32, 600_000, workload.ViolationNone, 0))},
			spec("session-prodcons-t8", formatSTD, mixed(workload.PatternProducerConsumer, 8, 600_000, workload.ViolationNone, 0)),
		},
		fileShare: 0.35,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// inputSet is every generated input of one workload. checks may alias
// files (serve-mixed posts the same traces it checks from files).
type inputSet struct {
	files, checks, sessions []*input
}

func (s inputSet) all() []*input {
	seen := map[*input]bool{}
	var out []*input
	for _, group := range [][]*input{s.files, s.checks, s.sessions} {
		for _, in := range group {
			if !seen[in] {
				seen[in] = true
				out = append(out, in)
			}
		}
	}
	return out
}

// newInputSet lays out the inputs of w under dir. Each input gets its own
// seed derived from the run seed, so no two inputs of a run are equal.
func newInputSet(w workloadSpec, seed int64, dir string) inputSet {
	byName := map[string]*input{}
	n := int64(0)
	mk := func(specs []inputSpec) []*input {
		out := make([]*input, len(specs))
		for i, sp := range specs {
			if in, ok := byName[sp.name]; ok {
				out[i] = in
				continue
			}
			n++
			in := &input{spec: sp, seed: seed*1_000_003 + n,
				path: filepath.Join(dir, sp.name+"."+sp.format)}
			byName[sp.name] = in
			out[i] = in
		}
		return out
	}
	return inputSet{files: mk(w.files), checks: mk(w.checks), sessions: mk(w.sessions)}
}

// generate writes every input of the set to its file, replacing what is
// there, and records event, byte and thread counts.
func (s inputSet) generate() error {
	for _, in := range s.all() {
		if err := in.write(); err != nil {
			return err
		}
	}
	return nil
}

func (in *input) write() error {
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	src := &countingSource{src: in.spec.source(in.seed), threads: map[trace.ThreadID]bool{}}
	bw := bufio.NewWriterSize(f, 1<<16)
	switch in.spec.format {
	case formatSTD:
		_, err = rapidio.WriteSource(bw, src)
	case formatBin:
		err = writeBinary(bw, src)
	default:
		err = fmt.Errorf("unknown format %q", in.spec.format)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", in.path, err)
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	in.bytes, in.events, in.threads = st.Size(), src.n, len(src.threads)
	return nil
}

func writeBinary(w *bufio.Writer, src trace.Source) error {
	bw := rapidio.NewBinaryWriter(w)
	for {
		e, ok := src.Next()
		if !ok {
			return bw.Flush()
		}
		if err := bw.Write(e); err != nil {
			return err
		}
	}
}

// countingSource passes events through, counting them and their threads.
type countingSource struct {
	src     trace.Source
	n       int64
	threads map[trace.ThreadID]bool
}

func (c *countingSource) Next() (trace.Event, bool) {
	e, ok := c.src.Next()
	if ok {
		c.n++
		c.threads[e.Thread] = true
	}
	return e, ok
}

// reference computes the expected verdict of every input with checkers
// independent of the one under test: Velodrome, which finds atomicity
// violations as cycles in a transaction graph without vector clocks, and
// the naive happens-before oracle for hbrace. (ReadOpt, Algorithm 2, is
// no option here: its end event walks every variable's clocks, which
// takes minutes on these traces.) The checkers run on the generator's
// events, not on the files, so a parser fault shows as a mismatch too.
func (s inputSet) reference() {
	for _, in := range s.all() {
		v, n := core.Run(velodrome.New(), in.spec.source(in.seed))
		in.want = verdictOf(v, n)
		if in.spec.analyses == hbrace {
			d := race.NewNaive()
			src := in.spec.source(in.seed)
			for d.Violation() == nil {
				e, ok := src.Next()
				if !ok {
					break
				}
				d.Process(e)
			}
			rv := raceVerdictOf(d.Violation(), d.Processed())
			in.race = &rv
		}
	}
}

// wide emits threads one after another, each running
// begin; r(x); w(x); end on one of a few shared variables. The trace is
// serial, hence serializable, but every thread is distinct, so engine
// state grows with the square of the thread count while per-event work
// stays trivial. The seed permutes thread ids and picks the variables.
type wide struct {
	rng     *rand.Rand
	perm    []int
	vars    int
	t, step int
	x       int32
}

func newWide(seed int64, threads, vars int) *wide {
	rng := rand.New(rand.NewSource(seed))
	return &wide{rng: rng, perm: rng.Perm(threads), vars: vars}
}

func (w *wide) Next() (trace.Event, bool) {
	if w.t >= len(w.perm) {
		return trace.Event{}, false
	}
	th := trace.ThreadID(w.perm[w.t])
	var e trace.Event
	switch w.step {
	case 0:
		w.x = int32(w.rng.Intn(w.vars))
		e = trace.Event{Thread: th, Kind: trace.Begin}
	case 1:
		e = trace.Event{Thread: th, Kind: trace.Read, Target: w.x}
	case 2:
		e = trace.Event{Thread: th, Kind: trace.Write, Target: w.x}
	case 3:
		e = trace.Event{Thread: th, Kind: trace.End}
	}
	w.step++
	if w.step == 4 {
		w.step = 0
		w.t++
	}
	return e, true
}
