package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1}} {
		got, n := percentile(xs, c.p)
		if got != c.want || n != len(xs) {
			t.Errorf("p%v = %v over %d samples, want %v over %d", c.p, got, n, c.want, len(xs))
		}
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty percentile = %v over %d samples, want NaN over 0", v, n)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children count once: [10,60] covered.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
		// A child running past its parent is clipped to it: [90,100].
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]LayerTime{
		"root": {Count: 1, Total: 100, Self: 40},
		"a":    {Count: 1, Total: 30, Self: 25},
		"b":    {Count: 2, Total: 60, Self: 60},
		"leaf": {Count: 1, Total: 5, Self: 5},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *Tracer
	sp := off.Start(0, "x", "")
	if sp.ID() != 0 || sp.End() != 0 || off.Spans() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	tr := newTracer()
	root := tr.Start(0, "root", "req-1")
	child := tr.Start(root.ID(), "child", "req-1")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Parent != root.ID() || spans[0].Req != "req-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if lt := selfTimes(spans)["root"]; lt.Self >= lt.Total {
		t.Errorf("root self %v not below its total %v", lt.Self, lt.Total)
	}
}

// small is a workload of the benchmark's own shapes at test size, in
// both formats and with an injected violation.
var small = workloadSpec{
	name: "small",
	files: []inputSpec{
		spec("chain-std", formatSTD, mixed(workload.PatternChain, 8, 3000, workload.ViolationCross, 0.5)),
		spec("sharded-bin", formatBin, grid(workload.PatternSharded, 16, 3000)),
		wideSpec("wide", 64),
	},
	sessions: []inputSpec{{name: "race", format: formatSTD, analyses: hbrace,
		source: generated(mixed(workload.PatternChain, 8, 3000, workload.ViolationNone, 0))}},
}

func readAll(t *testing.T, set inputSet) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, in := range set.all() {
		data, err := os.ReadFile(in.path)
		if err != nil {
			t.Fatal(err)
		}
		out[in.spec.name] = data
	}
	return out
}

func TestSameSeedSameInputBytes(t *testing.T) {
	gen := func(seed int64) map[string][]byte {
		dir := t.TempDir()
		set := newInputSet(small, seed, dir)
		if err := set.generate(); err != nil {
			t.Fatal(err)
		}
		return readAll(t, set)
	}
	a, b, c := gen(7), gen(7), gen(8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: seed 7 gave different bytes twice", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same bytes", name)
		}
	}
}

func TestEveryPathAgreesWithTheReference(t *testing.T) {
	set := newInputSet(small, 3, t.TempDir())
	if err := set.generate(); err != nil {
		t.Fatal(err)
	}
	set.reference()
	if set.files[0].want.Clean {
		t.Fatal("the injected violation was not found by the reference")
	}
	if set.sessions[0].race == nil {
		t.Fatal("no hbrace reference for a session that asks for it")
	}
	for _, in := range set.files {
		for _, mode := range fileModes {
			got, _, err := checkFile(mode, in, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareVerdict(mode+" "+in.spec.name, in.want, got); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestCompareReport(t *testing.T) {
	in := &input{spec: inputSpec{name: "x"}, want: Verdict{Index: 5, Events: 6}}
	viol := &aerodrome.Violation{EventIndex: 5}
	if err := compareReport("ok", in, &aerodrome.Report{Violation: viol, Events: 6}); err != nil {
		t.Errorf("matching report rejected: %v", err)
	}
	var m *errMismatch
	for name, rep := range map[string]*aerodrome.Report{
		"clean":       {Serializable: true, Events: 6},
		"other index": {Violation: &aerodrome.Violation{EventIndex: 4}, Events: 6},
		"more events": {Violation: viol, Events: 7},
	} {
		if err := compareReport(name, in, rep); !errors.As(err, &m) {
			t.Errorf("%s: got %v, want a mismatch", name, err)
		}
	}
	in.race = &Verdict{Clean: true, Index: -1, Events: 6}
	if err := compareReport("no hbrace", in, &aerodrome.Report{Violation: viol, Events: 6}); !errors.As(err, &m) {
		t.Errorf("report without the hbrace entry: got %v, want a mismatch", err)
	}
	rep := &aerodrome.Report{Violation: viol, Events: 6, Analyses: []aerodrome.AnalysisReport{
		{Analysis: string(aerodrome.AnalysisHBRace), Clean: true, Events: 6},
	}}
	if err := compareReport("hbrace", in, rep); err != nil {
		t.Errorf("matching hbrace report rejected: %v", err)
	}
}

func TestTallyCountsMismatchesAsFailures(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(errors.New("refused"))
	tl.record(compareVerdict("x", Verdict{Clean: true, Index: -1, Events: 3}, verdictOf(&core.Violation{Index: 1}, 2)))
	if tl.attempted.Load() != 3 || tl.failed.Load() != 2 || tl.mismatched.Load() != 1 {
		t.Errorf("attempted %d failed %d mismatched %d, want 3 2 1",
			tl.attempted.Load(), tl.failed.Load(), tl.mismatched.Load())
	}
}

func TestWideTraceShape(t *testing.T) {
	w := newWide(1, 100, 4)
	threads := map[int32]bool{}
	n := 0
	for {
		e, ok := w.Next()
		if !ok {
			break
		}
		threads[int32(e.Thread)] = true
		n++
	}
	if n != 400 || len(threads) != 100 {
		t.Errorf("%d events over %d threads, want 400 over 100", n, len(threads))
	}
}

func TestWorkloadsAreComplete(t *testing.T) {
	for _, w := range workloads {
		if len(w.files) == 0 || len(w.checks) == 0 || len(w.sessions) == 0 || w.fileShare <= 0 || w.fileShare >= 1 {
			t.Errorf("%s: every workload needs files, checks, sessions and a file share in (0,1)", w.name)
		}
		set := newInputSet(w, 1, "d")
		for _, in := range set.all() {
			if filepath.Ext(in.path) != "."+in.spec.format {
				t.Errorf("%s: %s has extension %s", w.name, in.path, filepath.Ext(in.path))
			}
		}
	}
}

func TestRaceMarginalIsPerEventOfEveryPair(t *testing.T) {
	// Two files, three pairs each; the second analysis costs 30 ns per
	// event on both.
	var pairs []racePair
	for rep := 0; rep < 3; rep++ {
		pairs = append(pairs,
			racePair{events: 1000, single: 100 * time.Microsecond, dual: 130 * time.Microsecond},
			racePair{events: 3000, single: 300 * time.Microsecond, dual: 390 * time.Microsecond})
	}
	if got := raceMarginal(pairs); math.Abs(got-30) > 1e-9 {
		t.Errorf("race marginal = %v ns/event, want 30", got)
	}
}

func TestProbeFilesRaceMarginalWithinItsPairs(t *testing.T) {
	set := newInputSet(small, 5, t.TempDir())
	if err := set.generate(); err != nil {
		t.Fatal(err)
	}
	set.reference()
	var tl tally
	m := metrics{}
	pairs, err := probeFiles(set.files, newTracer(), &tl, m)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed.Load() != 0 {
		t.Fatalf("probe verdicts failed: %v", tl.errs)
	}
	if len(pairs) != 3*len(set.files) {
		t.Fatalf("%d pairs, want 3 per file", len(pairs))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pairs {
		if p.events <= 0 || p.single <= 0 || p.dual <= 0 {
			t.Fatalf("empty pair %+v", p)
		}
		d := float64(p.dual-p.single) / float64(p.events)
		lo, hi = min(lo, d), max(hi, d)
	}
	// The marginal is an event-weighted mean of the pairs' own marginals,
	// so it lies within their spread whatever the noise.
	if got := m["race.marginal_ns_ev"].Value; got < lo-1e-9 || got > hi+1e-9 {
		t.Errorf("race marginal %v ns/event outside its pairs' range [%v, %v]", got, lo, hi)
	}
}

func TestReferenceWorkAllocatesNothingAndScales(t *testing.T) {
	ref := newRefWork(2)
	if allocs := testing.AllocsPerRun(3, ref.parts[0].work); allocs != 0 {
		t.Errorf("reference work allocates %v times per run, want 0: it would move the checker's garbage collection", allocs)
	}
	if s := ref.run(2); s <= 0 {
		t.Errorf("reference work on two threads took %v s", s)
	}
	if f := hostFactor(refNominal.Seconds()); f != 1 {
		t.Errorf("host factor at the nominal reference time = %v, want 1", f)
	}
	if f := hostFactor(2 * refNominal.Seconds()); f != 2 {
		t.Errorf("host factor at twice the nominal reference time = %v, want 2", f)
	}
}
