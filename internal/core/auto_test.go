package core

// White-box tests for the adaptive clock-representation levers: the Auto
// engine's width-keyed flat→tree cutover and the hybrid representation's
// hysteresis re-promotion of demoted thread clocks. The semantic
// (verdict/index) side is covered by the differential suites; these tests
// pin the representation dynamics themselves, which no verdict can see.

import (
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
)

// phaseShift is the shared fixture: a chain burst dense enough to demote
// every hybrid thread clock, then a sharded steady state long enough to
// re-promote them through the quiet-join hysteresis.
func phaseShift() *trace.Trace {
	return testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{
		Threads: 8, BurstRounds: 8, SteadyRounds: 40, OpsPerTxn: 4,
	})
}

// hybridTreeStates summarizes the representation state of an engine's
// thread clocks: how many are currently tree-backed, and how many have
// demoted at least once in their history.
func hybridTreeStates(eng *OptimizedHybrid) (trees, everDemoted int) {
	for i := range eng.threads {
		ts := &eng.threads[i]
		if !ts.init {
			continue
		}
		if ts.c.tree != nil {
			trees++
		}
		if ts.c.demotions > 0 {
			everDemoted++
		}
	}
	return trees, everDemoted
}

func TestHybridDemotesDuringChainBurst(t *testing.T) {
	tr := testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{
		Threads: 8, BurstRounds: 8, SteadyRounds: 0,
	})
	eng := NewOptimizedHybrid()
	if v, _ := Run(eng, tr.Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	trees, demoted := hybridTreeStates(eng)
	if demoted == 0 {
		t.Fatalf("chain burst demoted no thread clocks (trees=%d)", trees)
	}
	if trees == len(eng.threads) {
		t.Fatalf("all %d thread clocks still tree-backed after the burst", trees)
	}
}

func TestHybridDemotedClocksRepromoteInSteadyState(t *testing.T) {
	eng := NewOptimizedHybrid()
	if v, _ := Run(eng, phaseShift().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	trees, demoted := hybridTreeStates(eng)
	if demoted == 0 {
		t.Fatalf("fixture did not demote any thread clocks; burst too weak")
	}
	if trees == 0 {
		t.Fatalf("no demoted thread clock re-promoted after %d steady rounds (demoted=%d)",
			40, demoted)
	}
}

// TestHybridRepromotionPreservesVerdicts replays the phase-shift shape
// through every representation: demotion and re-promotion must be
// semantically invisible.
func TestHybridRepromotionPreservesVerdicts(t *testing.T) {
	tr := phaseShift()
	assertRepAgreement(t, "phase-shift", func() trace.Source { return tr.Cursor() })
}

// TestWideDemotionLeavesNoThrowawayTree pins the pre-join demotion: on the
// wide shape every fresh thread clock's first read absorbs a dense W_x, and
// the clock must demote before that join rather than after laying the
// join's result out as a tree. The begin clock still aliases the abandoned
// tree, so that tree must be the fresh one- or two-entry clock, not a
// width-sized star.
func TestWideDemotionLeavesNoThrowawayTree(t *testing.T) {
	eng := NewOptimizedAuto()
	if v, _ := Run(eng, testutil.WideTrace(512, 4, 1).Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	checked := 0
	for i := range eng.threads {
		ts := &eng.threads[i]
		if !ts.init || ts.c.tree != nil || ts.c.demotions == 0 || ts.cb.aliasSrc == nil {
			continue
		}
		checked++
		if n := ts.cb.aliasSrc.NumEntries(); n > 2 {
			t.Fatalf("thread %d: abandoned tree holds %d entries, want ≤ 2", i, n)
		}
	}
	if checked < 400 {
		t.Fatalf("only %d demoted thread clocks with an aliased tree; the shape no longer exercises demotion", checked)
	}
}

// TestRepresentationTrajectoryPinned pins the representation transitions
// to the counts of the rule that demoted only after JoinFlat reported
// churn: deciding the demotion before the join must change where the join
// happens, never which clocks demote or re-promote.
func TestRepresentationTrajectoryPinned(t *testing.T) {
	wide := testutil.WideTrace(512, 4, 1)
	for _, c := range []struct {
		name                  string
		eng                   *OptimizedHybrid
		tr                    *trace.Trace
		demote, repro, widthP int64
	}{
		{"auto/wide-512", NewOptimizedAuto(), wide, 493, 0, 0},
		{"hybrid/wide-512", NewOptimizedHybrid(), wide, 496, 0, 0},
		{"auto/phase-shift", NewOptimizedAuto(), phaseShift(), 0, 0, 0},
		{"auto-w4/phase-shift", newOptimizedAutoWidth(4), phaseShift(), 8, 8, 4},
		{"hybrid/phase-shift", NewOptimizedHybrid(), phaseShift(), 8, 8, 0},
	} {
		if v, _ := Run(c.eng, c.tr.Cursor()); v != nil {
			t.Fatalf("%s: unexpected violation: %v", c.name, v)
		}
		s := c.eng.Stats()
		if s.TreeDemotions != c.demote || s.TreeRepromotions != c.repro || s.WidthPromotions != c.widthP {
			t.Fatalf("%s: demotions/repromotions/width promotions = %d/%d/%d, want %d/%d/%d",
				c.name, s.TreeDemotions, s.TreeRepromotions, s.WidthPromotions, c.demote, c.repro, c.widthP)
		}
	}
}

func TestRepromoteQuietNeedHysteresis(t *testing.T) {
	cases := []struct {
		demotions uint8
		want      uint16
	}{
		{0, 0}, {1, 16}, {2, 32}, {3, 64}, {7, 1024}, {8, 1024}, {255, 1024},
	}
	for _, c := range cases {
		if got := repromoteQuietNeed(c.demotions); got != c.want {
			t.Fatalf("repromoteQuietNeed(%d) = %d, want %d", c.demotions, got, c.want)
		}
	}
}

// autoRoundTrace runs each of the given threads through one
// private-variable transaction, in thread order, rounds times. Each
// thread's private variable is distinct, so the trace is serializable at
// any width.
func autoRoundTrace(b *trace.Builder, threads []trace.ThreadID, vars []trace.VarID, rounds int) {
	for r := 0; r < rounds; r++ {
		for i, th := range threads {
			b.Begin(th)
			b.Write(th, vars[i])
			b.End(th)
		}
	}
}

func TestAutoStaysFlatBelowWidthThreshold(t *testing.T) {
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, 3)
	vars := make([]trace.VarID, 3)
	for i := range threads {
		threads[i] = b.Thread("t" + string(rune('0'+i)))
		vars[i] = b.Var("x" + string(rune('0'+i)))
	}
	autoRoundTrace(b, threads, vars, 10)
	eng := newOptimizedAutoWidth(4)
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	trees, _ := hybridTreeStates(eng)
	if trees != 0 {
		t.Fatalf("below-threshold Auto promoted %d thread clocks to trees", trees)
	}
}

// TestAutoPromotesWhenWidthCrosses drives an Auto engine past its width
// threshold: clocks constructed after the crossing start as trees, and the
// earlier flat clocks promote themselves at their next transaction begin.
func TestAutoPromotesWhenWidthCrosses(t *testing.T) {
	const n = 8
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, n)
	vars := make([]trace.VarID, n)
	for i := range threads {
		threads[i] = b.Thread("t" + string(rune('0'+i)))
		vars[i] = b.Var("x" + string(rune('0'+i)))
	}
	// First the narrow phase: threads 0–3 only (at the threshold of 4, so
	// still flat), then all eight threads appear and run further rounds.
	autoRoundTrace(b, threads[:4], vars[:4], 2)
	autoRoundTrace(b, threads, vars, 2)
	eng := newOptimizedAutoWidth(4)
	if v, _ := Run(eng, b.Build().Cursor()); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	for i := range threads {
		ts := &eng.threads[i]
		if !ts.init {
			t.Fatalf("thread %d never initialized", i)
		}
		if ts.c.tree == nil {
			t.Fatalf("thread %d clock still flat after width crossed (demotions=%d quiet=%d)",
				i, ts.c.demotions, ts.c.quiet)
		}
	}
}

// TestRepromotionStaleClaimTrace is the engine-level regression for the
// re-promotion version-stream bug: thread 0 records a version claim about
// thread 1 (by reading t1's live tree clock), t1 then demotes during a
// chain burst and re-promotes during a sharded steady state, and finally a
// three-transaction cycle T7→T1→T0→T7 closes THROUGH content t0 can only
// learn from t1's re-promoted clock. If re-promotion restarted t1's
// version stream, t0's stale claim would skip that join, t0 would miss
// t7's begin stamp, and the hybrid engine would diverge from flat on the
// violation. (treeclock.TestPromoteFromFlatVersionStreamContinues pins the
// same invariant at the data-structure level.)
func TestRepromotionStaleClaimTrace(t *testing.T) {
	b := trace.NewBuilder()
	const n = 8
	th := make([]trace.ThreadID, n)
	for i := range th {
		th[i] = b.Thread("t" + string(rune('0'+i)))
	}
	y, v1, w7, q0 := b.Var("y"), b.Var("v1"), b.Var("w7"), b.Var("q0")
	tok := make([]trace.VarID, n)
	priv := make([]trace.VarID, n)
	for i := range tok {
		tok[i] = b.Var("tok" + string(rune('0'+i)))
		priv[i] = b.Var("priv" + string(rune('0'+i)))
	}
	for i := 1; i < n; i++ {
		b.Fork(th[0], th[i])
	}
	// A: pump t1's version stream well past everything t1 will do after
	// re-promoting (a restarted stream could only be caught while the
	// stale claim still exceeds it), then publish a claim into t0's tree
	// by reading t1's live clock mid-transaction.
	for i := 0; i < 120; i++ {
		b.Begin(th[1])
		b.Write(th[1], y)
		b.End(th[1])
	}
	b.Begin(th[1])
	b.Write(th[1], y)
	b.Begin(th[0])
	b.Read(th[0], y) // t0 ⊔= C_t1 (live, tree-tree): claim recorded
	b.End(th[0])
	b.End(th[1])
	// B: chain burst among t1..t6 — demotes their thread clocks.
	for r := 0; r < 8; r++ {
		for w := 1; w <= 6; w++ {
			prev := w - 1
			if prev < 1 {
				prev = 6
			}
			b.Begin(th[w])
			b.Read(th[w], tok[prev])
			b.Write(th[w], tok[w])
			b.End(th[w])
		}
	}
	// C: sharded steady state — t1 re-promotes via the quiet streak.
	for r := 0; r < 30; r++ {
		b.Begin(th[1])
		b.Write(th[1], priv[1])
		b.Read(th[1], priv[1])
		b.Write(th[1], priv[2])
		b.End(th[1])
	}
	// D: the exposing cycle. t7's begin stamp travels t7→t1→t0 only
	// through t1's re-promoted clock.
	b.Begin(th[7])
	b.Write(th[7], w7)
	b.Begin(th[1])
	b.Read(th[1], w7) // t1 ⊔= C_t7 (live)
	b.Write(th[1], v1)
	b.Begin(th[0])
	b.Read(th[0], v1) // t0 ⊔= C_t1 (live): the join a stale claim would skip
	b.Write(th[0], q0)
	b.Read(th[7], q0) // cycle closes: violation in every correct engine
	b.End(th[7])
	b.End(th[1])
	b.End(th[0])
	tr := b.Build()

	// The fixture must actually demote and re-promote t1, or it guards
	// nothing: check the hybrid engine's white-box state right before D.
	probe := NewOptimizedHybrid()
	cur := tr.Cursor()
	for i := 0; i < len(tr.Events)-12; i++ {
		e, _ := cur.Next()
		probe.Process(e)
	}
	if ts := &probe.threads[1]; ts.c.demotions == 0 || ts.c.tree == nil {
		t.Fatalf("fixture rot: t1 demotions=%d tree=%v (want demoted then re-promoted)",
			ts.c.demotions, ts.c.tree != nil)
	}

	assertRepAgreement(t, "repromotion-stale-claim", func() trace.Source { return tr.Cursor() })
	if v, _ := Run(NewOptimized(), tr.Cursor()); v == nil {
		t.Fatal("fixture rot: the exposing cycle no longer violates")
	}
}

// TestAutoMatchesOtherRepsOnPhaseShift pins the Auto engine (default and
// tiny-threshold variants are both in allRepEngines) to the other
// representations on the phase-shift fixture — the workload it was built
// for.
func TestAutoMatchesOtherRepsOnPhaseShift(t *testing.T) {
	for _, threads := range []int{2, 4, 8, 24} {
		tr := testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{
			Threads: threads, BurstRounds: 6, SteadyRounds: 30, OpsPerTxn: 3,
		})
		assertRepAgreement(t, "auto-phase", func() trace.Source { return tr.Cursor() })
	}
}
