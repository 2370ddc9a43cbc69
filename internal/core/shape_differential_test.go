package core

// Differential coverage for the PR 7 scenario-zoo trace shapes
// (producer-consumer, barrier phases, lock convoy, quota-thrash): every
// clock representation of the Optimized engine must agree bit-for-bit on
// the workload generators' streams — clean and with every injected
// violation — and the Basic reference must agree on the verdict with a
// detection point no earlier than the optimized engines'. The same
// shapes' deterministic testutil builders run through the identical
// comparison, so both the rng-driven and the builder paths are pinned.

import (
	"fmt"
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

var shapePatterns = []workload.Pattern{
	workload.PatternProducerConsumer, workload.PatternBarrier,
	workload.PatternConvoy, workload.PatternThrash,
}

// assertBasicAgreement runs the Basic reference against the flat engine:
// same verdict, and laziness never reports later than Basic.
func assertBasicAgreement(t *testing.T, ctx string, src func() trace.Source) {
	t.Helper()
	vBasic, _ := Run(NewBasic(), src())
	vOpt, _ := Run(NewOptimized(), src())
	if (vBasic != nil) != (vOpt != nil) {
		t.Fatalf("%s: verdict divergence: basic violation=%v optimized violation=%v",
			ctx, vBasic != nil, vOpt != nil)
	}
	if vBasic != nil && vOpt.Index > vBasic.Index {
		t.Fatalf("%s: optimized detected later than basic: %d > %d", ctx, vOpt.Index, vBasic.Index)
	}
}

func TestShapePatternAgreementAcrossEngines(t *testing.T) {
	for _, p := range shapePatterns {
		for _, inj := range []workload.Violation{
			workload.ViolationNone, workload.ViolationCross,
			workload.ViolationDelayed, workload.ViolationLock,
		} {
			p, inj := p, inj
			t.Run(fmt.Sprintf("%s/%s", p, inj), func(t *testing.T) {
				cfg := workload.Config{
					Name: fmt.Sprintf("%s-%s", p, inj), Threads: 6, Vars: 64,
					Locks: 4, Events: 1_200, OpsPerTxn: 3, Pattern: p,
					Inject: inj, InjectAt: 0.7, Seed: 20260808,
				}
				tr := trace.Collect(workload.New(cfg))
				src := func() trace.Source { return tr.Cursor() }
				assertRepAgreement(t, cfg.Name, src)
				assertBasicAgreement(t, cfg.Name, src)
			})
		}
	}
}

func TestShapeBuilderAgreementAcrossEngines(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"producer-consumer", testutil.ProducerConsumerTrace(testutil.ProducerConsumerOpts{
			Producers: 3, Consumers: 3, Rounds: 120, Slots: 6,
		})},
		{"barrier-phases", testutil.BarrierPhasesTrace(testutil.BarrierOpts{
			Threads: 7, Phases: 24, OpsPerTxn: 3,
		})},
		{"lock-convoy", testutil.LockConvoyTrace(testutil.LockConvoyOpts{
			Threads: 7, Rounds: 160, Nested: true,
		})},
		{"quota-thrash", testutil.QuotaThrashTrace(testutil.QuotaThrashOpts{
			Threads: 6, Bursts: 60, TxnsPerBurst: 4,
		})},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := func() trace.Source { return tc.tr.Cursor() }
			assertRepAgreement(t, tc.name, src)
			assertBasicAgreement(t, tc.name, src)
			if v, _ := Run(NewBasic(), tc.tr.Cursor()); v != nil {
				t.Fatalf("builder shape must be serializable, got %v", v)
			}
		})
	}
}

// TestWideShapeAgreementAcrossEngines runs the hostile-width shape past the
// byte-trace fuzzer's 16-thread cap: fresh thread clocks absorbing W_x
// entries wide enough to trip JoinFlat's star rebuild and the hybrid's
// pre-join demotion, which no fuzz join can reach. The violating variant
// closes its cycle after every demotion has happened.
func TestWideShapeAgreementAcrossEngines(t *testing.T) {
	for _, threads := range []int{17, 64, 300} {
		for _, violating := range []bool{false, true} {
			tr := testutil.WideTrace(threads, 4, int64(threads))
			name := fmt.Sprintf("wide-%d", threads)
			if violating {
				tr = testutil.WideViolatingTrace(threads, 4, int64(threads))
				name += "-violating"
			}
			t.Run(name, func(t *testing.T) {
				src := func() trace.Source { return tr.Cursor() }
				assertRepAgreement(t, name, src)
				assertBasicAgreement(t, name, src)
				if v, _ := Run(NewBasic(), tr.Cursor()); (v != nil) != violating {
					t.Fatalf("basic violation=%v, want %v", v != nil, violating)
				}
			})
		}
	}
}
