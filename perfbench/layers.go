package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/race"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/server"
	"aerodrome/internal/trace"
)

// layered is the traced run. It measures the end-to-end metrics twice,
// untraced and then traced, for a quarter of the budget each (their
// difference is the tracing overhead), and then runs fixed-work probes
// that isolate each layer. Per-layer times come from the spans.
func layered(w workloadSpec, set inputSet, st *stack, budget time.Duration, ref *refWork, tr *Tracer, t *tally, su setupTimes, out io.Writer) (metrics, error) {
	plain, err := endToEnd(w, set, st, budget/4, ref, nil, t)
	if err != nil {
		return nil, err
	}
	traced, err := endToEnd(w, set, st, budget/4, ref, tr, t)
	if err != nil {
		return nil, err
	}
	fr, c := traced.files, traced.clients

	m := metrics{}
	var moved []float64
	for name, tv := range traced.m {
		// Peak memory comes from untraced child processes, so tracing
		// cannot move it.
		if name != "peak_rss_mb" {
			moved = append(moved, math.Abs(tv.Value/plain.m[name].Value-1))
		}
	}
	m.set("bench.trace_overhead_frac", median(moved), "ratio",
		fmt.Sprintf("median of |traced/untraced - 1| over %d timed end-to-end metrics", len(moved)))
	m.set("host.ref_ms", plain.refMs, "ms", "median time of the reference work in the untraced pass")
	m.set("workload.gen_s", median(su.gen), "s", fmt.Sprintf("median of %d set-ups", len(su.gen)))
	m.set("server.boot_s", median(su.boot), "s", fmt.Sprintf("median of %d set-ups", len(su.boot)))

	if _, err := probeFiles(set.files, tr, t, m); err != nil {
		return nil, err
	}
	if err := probeServe(st, c, set.checks, set.sessions, tr, t, m); err != nil {
		return nil, err
	}

	self := selfTimes(tr.Spans())
	nsPer := func(span, mode string) float64 {
		return float64(self[span].Self) / float64(fr.events[mode])
	}
	m.set("parcheck.collect_ns_ev", nsPer("parcheck.collect", modePar2), "ns", "self time of the serial read in par2 verdicts")
	m.set("parcheck.check_ns_ev", nsPer("parcheck.check", modePar2), "ns", "self time of parcheck.Check in par2 verdicts")
	m.set("parcheck.shards", float64(fr.shards), "count", "engines run, summed over files")
	m.set("parcheck.replayed", float64(fr.parRep), "count", "files whose par2 verdict came from a sequential replay")
	slower := max(m["core.auto_ns_ev"].Value, m["rapidio."+set.files[0].spec.format+"_parse_ns_ev"].Value)
	m.set("pipeline.stall_ns_ev", nsPer("pipeline.RunMulti", modePipeline)-slower, "ns",
		"pipelined wall minus the slower of parse-only and check-only")
	m.set("server.refused", float64(c.refused.Load()), "count", "429/503/5xx responses")
	m.set("server.retries", float64(c.retries.Load()), "count", "client retries")

	fmt.Fprintln(out, "# self time per span name (count, total, self):")
	for _, name := range sortedKeys(self) {
		lt := self[name]
		fmt.Fprintf(out, "#   %-24s %7d %12v %12v\n", name, lt.Count, lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
	}
	return m, nil
}

// rendering returns a path holding in's trace in format, writing the
// other rendering next to the input file when the formats differ.
func rendering(in *input, format string) (string, error) {
	if in.spec.format == format {
		return in.path, nil
	}
	path := strings.TrimSuffix(in.path, "."+in.spec.format) + ".alt." + format
	alt := *in
	alt.spec.format = format
	alt.path = path
	return path, alt.write()
}

// collect parses in's file into memory.
func collect(in *input) ([]trace.Event, error) {
	f, err := os.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src := newReader(f, in.spec.format)
	events := trace.Collect(src).Events
	return events, src.Err()
}

// racePair is one atomicity-only and one atomicity+hbrace pipelined check
// of the same file; events is what the dual check consumed.
type racePair struct {
	events       int64
	single, dual time.Duration
}

// raceMarginal is the price of the second analysis in ns per event:
// dual minus single time, summed over pairs, over the events of the pairs.
func raceMarginal(pairs []racePair) float64 {
	var extra time.Duration
	var events int64
	for _, p := range pairs {
		extra += p.dual - p.single
		events += p.events
	}
	return float64(extra) / float64(events)
}

// probeFiles isolates the layers under the file paths: each reader with
// no engine, each clock representation on pre-parsed events, the engine's
// live heap, and the price of the second analysis. It returns the timed
// pairs the race marginal comes from.
func probeFiles(files []*input, tr *Tracer, t *tally, m metrics) ([]racePair, error) {
	for _, format := range []string{formatSTD, formatBin} {
		var events int64
		var spent time.Duration
		for _, in := range files {
			path, err := rendering(in, format)
			if err != nil {
				return nil, err
			}
			for rep := 0; rep < 2; rep++ {
				runtime.GC()
				n, d, err := parseOnly(path, format, tr)
				if err != nil {
					return nil, err
				}
				events += n
				spent += d
			}
		}
		m.set("rapidio."+format+"_parse_ns_ev", float64(spent)/float64(events), "ns",
			"ReadBatch loop with no engine, from the file")
	}

	algos := []struct {
		name string
		a    core.Algorithm
	}{
		{"auto", core.AlgoOptimizedAuto},
		{"optimized", core.AlgoOptimized},
		{"treeclock", core.AlgoOptimizedTree},
		{"hybrid", core.AlgoOptimizedHybrid},
	}
	spent := map[string]time.Duration{}
	var events int64
	var pairs []racePair
	var stats core.EngineStats
	var stateMB float64
	for _, in := range files {
		evs, err := collect(in)
		if err != nil {
			return nil, err
		}
		for _, a := range algos {
			runtime.GC()
			sp := tr.Start(0, "core."+a.name, "")
			eng := core.New(a.a)
			v, n := runSlice(eng, evs)
			spent[a.name] += sp.End()
			t.record(compareVerdict("core."+a.name+" "+in.spec.name, in.want, verdictOf(v, n)))
			if a.a == algo {
				events += n
				if r, ok := eng.(core.StatsReporter); ok {
					stats.Add(r.Stats())
				}
			}
		}
		stateMB = max(stateMB, engineStateMB(evs))

		// Three pairs in alternating order, so neither side always runs on
		// the heap the other left.
		for rep := 0; rep < 3; rep++ {
			var p racePair
			for k := 0; k < 2; k++ {
				dual := (rep+k)%2 == 1
				runtime.GC()
				d, n, err := pipelined(in, dual, tr)
				if err != nil {
					return nil, err
				}
				if dual {
					p.dual, p.events = d, n
				} else {
					p.single = d
				}
			}
			pairs = append(pairs, p)
		}
	}
	for _, a := range algos {
		m.set("core."+a.name+"_ns_ev", float64(spent[a.name])/float64(events), "ns", "Engine.Process over pre-parsed events")
	}
	m.set("core.epoch_hit_rate", stats.EpochHitRate(), "ratio", "auto engine Stats()")
	m.set("core.width_promotions", float64(stats.WidthPromotions), "count", "auto engine Stats()")
	m.set("core.state_mb", stateMB, "MB", "live heap held by the auto engine after a check (largest file)")
	m.set("race.marginal_ns_ev", raceMarginal(pairs), "ns",
		fmt.Sprintf("pipelined atomicity+hbrace minus atomicity alone, %d pairs", len(pairs)))
	return pairs, nil
}

func runSlice(eng core.Engine, evs []trace.Event) (*core.Violation, int64) {
	for _, e := range evs {
		if v := eng.Process(e); v != nil {
			return v, eng.Processed()
		}
	}
	return eng.Violation(), eng.Processed()
}

func parseOnly(path, format string, tr *Tracer) (int64, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sp := tr.Start(0, "rapidio."+format+"_parse", "")
	src := newReader(f, format)
	buf := make([]trace.Event, 4096)
	var n int64
	for {
		k, err := src.ReadBatch(buf)
		n += int64(k)
		if err == io.EOF {
			break
		}
		if err != nil {
			sp.End()
			return 0, 0, err
		}
	}
	return n, sp.End(), nil
}

// engineStateMB is the live heap an auto engine holds after checking
// evs: the heap after a GC with the engine alive, minus the heap before.
func engineStateMB(evs []trace.Event) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := core.New(algo)
	runSlice(eng, evs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(evs)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
}

type raceSink struct{ d *race.Detector }

func (s raceSink) Process(e trace.Event) { s.d.Process(e) }
func (s raceSink) Done() bool            { return s.d.Violation() != nil }

// pipelined times one -pipeline check of in, with the hbrace detector
// riding the same stream when dual is set, and returns the events read.
func pipelined(in *input, dual bool, tr *Tracer) (time.Duration, int64, error) {
	f, err := os.Open(in.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	name := "race.single"
	var sinks []pipeline.Sink
	if dual {
		name = "race.dual"
		sinks = []pipeline.Sink{raceSink{race.New()}}
	}
	sp := tr.Start(0, name, "")
	_, n, err := pipeline.RunMulti(core.New(algo), sinks, newReader(f, in.spec.format), pipeline.Config{})
	return sp.End(), n, err
}

// probeServe prices the service layers one request at a time: the
// library call the handler makes, the same check straight to the backend
// and through the router, and session feeds both ways.
func probeServe(st *stack, c *clients, checks, sessions []*input, tr *Tracer, t *tally, m metrics) error {
	ctx := context.Background()
	direct, routed := c.client(st.backendURL), c.client(st.routerURL)
	defer closeIdle(direct)
	defer closeIdle(routed)
	var lib, dir, via []float64
	for r := 0; r < 6; r++ {
		for _, in := range checks {
			sp := tr.Start(0, "server.lib_check", "")
			start := time.Now()
			rep, err := libCheck(c.payloads[in])
			lib = append(lib, float64(time.Since(start))/1e6)
			sp.End()
			if err == nil {
				err = compareReport("library check "+in.spec.name, in, rep)
			}
			t.record(err)
			targets := []struct {
				cl  *server.Client
				out *[]float64
			}{{direct, &dir}, {routed, &via}}
			if r%2 == 1 {
				targets[0], targets[1] = targets[1], targets[0]
			}
			for _, target := range targets {
				lat, err := c.check(ctx, target.cl, in)
				t.record(err)
				*target.out = append(*target.out, float64(lat.wall)/1e6)
			}
		}
	}
	libMs, dirMs, viaMs := median(lib), median(dir), median(via)
	m.set("server.check_lib_ms", libMs, "ms", fmt.Sprintf("median of %d library calls", len(lib)))
	m.set("server.check_direct_p50_ms", dirMs, "ms", fmt.Sprintf("%d checks straight to the backend", len(dir)))
	m.set("server.http_ms", dirMs-libMs, "ms", "direct /v1/check minus the library call")
	m.set("server.router.hop_ms", viaMs-dirMs, "ms", "/v1/check via the router minus direct")

	var feedDir, feedVia []float64
	for i := 0; i < 2*len(sessions); i++ {
		in := sessions[i%len(sessions)]
		first, second := direct, routed
		firstOut, secondOut := &feedDir, &feedVia
		if i%2 == 1 {
			first, second, firstOut, secondOut = routed, direct, &feedVia, &feedDir
		}
		_, err := c.session(ctx, first, in, firstOut)
		t.record(err)
		_, err = c.session(ctx, second, in, secondOut)
		t.record(err)
	}
	fd, _ := percentile(feedDir, 50)
	fv, _ := percentile(feedVia, 50)
	m.set("server.feed_direct_p50_ms", fd, "ms", fmt.Sprintf("%d 64 KiB feeds straight to the backend", len(feedDir)))
	m.set("server.router.feed_hop_ms", fv-fd, "ms", "feed p50 via the router minus direct")
	return nil
}

// libCheck is the call the /v1/check handler makes for a body.
func libCheck(data []byte) (*aerodrome.Report, error) {
	if rapidio.IsBinary(data) {
		rep, _, err := aerodrome.CheckBinaryReaderPipelinedStatsAnalyses(bytes.NewReader(data), aerodrome.Auto, nil)
		return rep, err
	}
	rep, _, err := aerodrome.CheckReaderPipelinedStatsAnalyses(bytes.NewReader(data), aerodrome.Auto, nil)
	return rep, err
}
