package core

import "aerodrome/internal/treeclock"

// The Algorithm 3 engine comes in two instantiations over the clock
// representation layer (see clockRep):
//
//   - Optimized — flat vector clocks, monomorphized source (the
//     specialization of OptimizedOn generated into optimized_flat.go);
//     the default engine and the one the paper's Theorem 4 bound is
//     stated for.
//   - OptimizedTree — *treeclock.Clock, the generic instantiation;
//     joins/copies touch only the entries that actually change.
//   - OptimizedHybrid — *hybridClock: tree clocks for the per-thread
//     clocks, flat clocks for the auxiliary accumulators (see hybrid.go).
//
// The differential suites pin all instantiations (and the generic flat
// instantiation used for meta-testing) to identical verdicts, violation
// indices and GC decisions.

// OptimizedTree is the Algorithm 3 engine on tree clocks.
type OptimizedTree = OptimizedOn[*treeclock.Clock]

// NewOptimized returns a fresh Algorithm 3 engine on flat vector clocks.
func NewOptimized() *Optimized {
	return &Optimized{newClock: newFlatClock, name: AlgoOptimized.String()}
}

// NewOptimizedTree returns a fresh Algorithm 3 engine on tree clocks.
func NewOptimizedTree() *OptimizedTree {
	return &OptimizedTree{newClock: treeclock.New, name: AlgoOptimizedTree.String()}
}

// NewOptimizedHybrid returns a fresh Algorithm 3 engine on the hybrid
// representation: tree thread clocks, flat auxiliary clocks. Like the flat
// default it is a source-level specialization of the generic engine
// (optimized_hybrid.go, kept in sync by TestHybridSpecializationInSync).
func NewOptimizedHybrid() *OptimizedHybrid {
	st := &repStats{}
	return &OptimizedHybrid{
		newClock: func() *hybridClock {
			h := newHybridThreadClock()
			h.stats = st
			return h
		},
		newAux:   newHybridAuxClock,
		name:     AlgoOptimizedHybrid.String(),
		repStats: st,
	}
}

// AutoWidthThreshold is the observed-thread-width cutover of the Auto
// engine: thread clocks constructed while at most this many threads have
// appeared start on the flat representation (whose constants win at small
// widths — see the ROADMAP perf trajectory), later ones start as trees,
// and the earlier flat clocks promote themselves once the width crosses
// (hybridClock.maybePromote).
//
// Swept 8–32 over sharded/chain/phase workloads at widths 12 and 48
// (BenchmarkAutoWidthThreshold, ROADMAP PR 4): 8–24 plateau within this
// machine's noise on sharded and chain; 32 loses ~30% on chain-t48 (the
// late promotions churn against already-entangled clocks) and ~40% on
// phase-t12. 16 sits on every plateau and is kept; guarded by
// TestAutoWidthThresholdPinned, semantically invisible by
// TestAutoWidthThresholdSemanticInvariance.
const AutoWidthThreshold = 16

// NewOptimizedAuto returns a fresh Algorithm 3 engine on the
// width-adaptive representation: structurally an OptimizedHybrid whose
// thread clocks pick flat vs tree by the observed thread width, so small
// traces pay flat's constants and wide ones get the hybrid's tree wins.
// Tree thread clocks demote as in the hybrid, and on wide traces mostly
// before the join: a thread clock created after the cutover holds one
// entry when its first read absorbs a 𝕎_x as wide as the trace, so it
// demotes and joins flat without building the throwaway tree. The
// representation choice is semantically invisible (the differential
// suites pin it to the other engines' verdicts and indices).
func NewOptimizedAuto() *OptimizedHybrid {
	return newOptimizedAutoWidth(AutoWidthThreshold)
}

// newOptimizedAutoWidth is NewOptimizedAuto with an explicit width
// threshold (tests exercise the cutover with small widths).
func newOptimizedAutoWidth(threshold int) *OptimizedHybrid {
	pol := &autoPolicy{threshold: threshold}
	st := &repStats{}
	return &OptimizedHybrid{
		newClock: func() *hybridClock {
			pol.width++
			if pol.width > pol.threshold {
				h := newHybridThreadClock()
				h.pol = pol
				h.stats = st
				return h
			}
			return &hybridClock{owner: -1, pol: pol, stats: st}
		},
		newAux:   newHybridAuxClock,
		name:     AlgoOptimizedAuto.String(),
		repStats: st,
	}
}

// newOptimizedGenericHybrid instantiates the generic engine on the hybrid
// representation (specialization meta-tests; cf. newOptimizedGenericFlat).
func newOptimizedGenericHybrid() *OptimizedOn[*hybridClock] {
	return &OptimizedOn[*hybridClock]{
		newClock: newHybridThreadClock,
		newAux:   newHybridAuxClock,
		name:     AlgoOptimizedHybrid.String(),
	}
}

// newOptimizedGenericFlat instantiates the generic engine on flat clocks.
// It exists for the specialization meta-tests: the concrete Optimized and
// this instantiation must be behaviorally identical.
func newOptimizedGenericFlat() *OptimizedOn[*flatClock] {
	return &OptimizedOn[*flatClock]{newClock: newFlatClock, name: AlgoOptimized.String()}
}

// accessSlot is the epoch of a completed read-flush or write by `thread`:
// the O(width) parts of the handler may be skipped while every listed
// version still matches.
type accessSlot struct {
	thread   int32
	wasInTxn bool   // writes only: staleW semantics differ inside a txn
	ctVer    uint64 // the accessing thread's clock version
	rxVer    uint64 // writes only: R_x version
	wVer     uint64 // writes only: W_x version
	cbVer    uint64 // writes only: the begin clock behind the ȒR check
	hrxVer   uint64 // writes only: the ȒR_x exception list (with rxVer, ȒR_x(thread))
}
