package core

// Bench-backed sweep of vc.PromoteThreshold, the entry count past which
// the sparse ȒR_x accumulators (vc.Sparse, ReadOpt) promote themselves to
// dense clocks and the Algorithm 3 engines' per-variable read-state lists
// (tidList) build their thread index. The interesting regime is read-heavy traces whose variables are read by
// more threads than the threshold (ROADMAP PR 2 open item: 13–64 readers
// per variable pay dense promotion early at the old threshold of 12).
//
// Run the sweep with:
//
//	go test ./internal/core -run '^$' -bench SparsePromoteThreshold -benchtime 3x
//
// The winner is pinned in vc.PromoteThreshold (see its doc comment for
// the recorded numbers) and guarded by TestSparsePromoteThresholdPinned;
// TestSparsePromoteThresholdSemanticInvariance proves the knob cannot
// change verdicts, only constants.

import (
	"fmt"
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
	"aerodrome/internal/workload"
)

// readHeavyTrace builds the sweep workload: `readers` threads all read a
// pool of shared variables inside transactions (every shared variable
// accumulates `readers` distinct ȒR entries), interleaved with private
// writes so the update sets stay busy.
func readHeavyTrace(readers, sharedVars, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, readers)
	for i := range threads {
		threads[i] = b.Thread(fmt.Sprintf("t%d", i))
	}
	shared := make([]trace.VarID, sharedVars)
	for i := range shared {
		shared[i] = b.Var(fmt.Sprintf("s%d", i))
	}
	priv := make([]trace.VarID, readers)
	for i := range priv {
		priv[i] = b.Var(fmt.Sprintf("p%d", i))
	}
	for i := 1; i < readers; i++ {
		b.Fork(threads[0], threads[i])
	}
	// Seed every shared variable with one write so reads conflict.
	b.Begin(threads[0])
	for _, x := range shared {
		b.Write(threads[0], x)
	}
	b.End(threads[0])
	for r := 0; r < rounds; r++ {
		for w := 0; w < readers; w++ {
			b.Begin(threads[w])
			b.Read(threads[w], shared[(r+w)%sharedVars])
			b.Read(threads[w], shared[(r+w+1)%sharedVars])
			b.Write(threads[w], priv[w])
			b.End(threads[w])
		}
	}
	for i := 1; i < readers; i++ {
		b.Join(threads[0], threads[i])
	}
	return b.Build()
}

func BenchmarkSparsePromoteThreshold(b *testing.B) {
	defer func(old int) { vc.PromoteThreshold = old }(vc.PromoteThreshold)
	for _, readers := range []int{8, 16, 48} {
		tr := readHeavyTrace(readers, 64, 4000/readers)
		for _, threshold := range []int{4, 8, 12, 16, 24, 32} {
			b.Run(fmt.Sprintf("readers=%d/threshold=%d", readers, threshold), func(b *testing.B) {
				vc.PromoteThreshold = threshold
				b.ReportMetric(float64(len(tr.Events)), "events")
				for i := 0; i < b.N; i++ {
					eng := NewOptimized()
					if v, _ := Run(eng, tr.Cursor()); v != nil {
						b.Fatalf("unexpected violation: %v", v)
					}
				}
			})
		}
	}
}

// TestSparsePromoteThresholdSemanticInvariance sweeps the threshold across
// its extremes and requires bit-identical outcomes from every engine on
// read-heavy, phase-shift and injected-violation traces: the knob may only
// move constants, never verdicts, indices or GC decisions.
func TestSparsePromoteThresholdSemanticInvariance(t *testing.T) {
	defer func(old int) { vc.PromoteThreshold = old }(vc.PromoteThreshold)
	traces := map[string]*trace.Trace{
		"read-heavy": readHeavyTrace(24, 32, 40),
		"phase": testutil.PhaseShiftTrace(testutil.PhaseShiftOpts{
			Threads: 8, BurstRounds: 4, SteadyRounds: 10,
		}),
	}
	for _, inj := range []workload.Violation{workload.ViolationCross, workload.ViolationDelayed} {
		cfg := workload.Config{
			Name: "sweep-" + string(inj), Threads: 16, Vars: 64, Locks: 4,
			Events: 4000, OpsPerTxn: 3, Pattern: workload.PatternChain,
			Inject: inj, InjectAt: 0.6, TxnFraction: 0.5, Seed: 33,
		}
		traces[cfg.Name] = trace.Collect(workload.New(cfg))
	}

	type outcome struct {
		violated bool
		index    int64
		check    CheckKind
		n        int64
	}
	for name, tr := range traces {
		var want outcome
		for i, threshold := range []int{1, 4, 12, 16, 32, 1 << 20} {
			vc.PromoteThreshold = threshold
			for _, rep := range allRepEngines() {
				v, n := Run(rep.eng, tr.Cursor())
				got := outcome{violated: v != nil, n: n}
				if v != nil {
					got.index, got.check = v.Index, v.Check
				}
				if i == 0 && rep.name == "flat" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: threshold %d engine %s: outcome %+v, want %+v",
						name, threshold, rep.name, got, want)
				}
			}
		}
	}
}

// TestSparsePromoteThresholdPinned guards the swept default: changing it
// requires re-running the sweep and updating vc.PromoteThreshold's doc.
func TestSparsePromoteThresholdPinned(t *testing.T) {
	if vc.PromoteThreshold != 16 {
		t.Fatalf("vc.PromoteThreshold = %d; the swept default is 16 — re-run "+
			"BenchmarkSparsePromoteThreshold and update the doc before changing it",
			vc.PromoteThreshold)
	}
}
