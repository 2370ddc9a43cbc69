package core

// Tests for the Algorithm 3 engine's per-variable read state: ȒR_x kept as
// a list of exceptions to R_x, and the update-set marks kept as lists of
// open transactions (tidList). The exception list must reproduce the
// dense ȒR_x exactly, both lists must stay short on the shapes whose
// readers absorb each other's stamps, and the list, deletion and indexed
// paths must all agree with the reference engines.

import (
	"fmt"
	"math/rand"
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
	"aerodrome/internal/workload"
)

// TestTidListMatchesMap drives a tidList through random finds, sets,
// adds, deletes and prunes across the promotion threshold and checks it
// against a map after every step.
func TestTidListMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		var l tidList
		ref := map[int]vc.Time{}
		width := 1 + r.Intn(3*vc.PromoteThreshold)
		promotions := 0
		for step := 0; step < 300; step++ {
			tid := r.Intn(width)
			i := l.find(tid)
			want, listed := ref[tid]
			if listed != (i >= 0) || (listed && l.entry(i).t != want) {
				t.Fatalf("iter %d step %d: find(%d) = %d, map has (%d, %v)", iter, step, tid, i, want, listed)
			}
			ver := l.ver
			switch {
			case r.Intn(8) == 0:
				// Prune the entries of odd times: all of them, or, once
				// indexed, none while the backing array has room.
				dead := 0
				for _, v := range ref {
					dead += int(v % 2)
				}
				before := l.len()
				l.prune(func(e tidEntry) bool { return e.t%2 == 1 })
				switch {
				case l.len() == before-dead:
					for k, v := range ref {
						if v%2 == 1 {
							delete(ref, k)
						}
					}
				case l.len() != before || !l.indexed():
					t.Fatalf("iter %d step %d: prune left %d of %d entries, %d dead", iter, step, l.len(), before, dead)
				}
				if l.len() == before {
					ver-- // nothing deleted, so nothing to bump
				}
			case !listed:
				v := vc.Time(r.Intn(50))
				if l.add(tid, v) {
					promotions++
				}
				ref[tid] = v
			case r.Intn(3) == 0:
				l.setAt(i, want+1)
				ref[tid] = want + 1
			default:
				l.deleteAt(i)
				delete(ref, tid)
			}
			if l.ver == ver {
				t.Fatalf("iter %d step %d: mutation did not bump ver", iter, step)
			}
			if l.len() != len(ref) {
				t.Fatalf("iter %d step %d: len %d, want %d", iter, step, l.len(), len(ref))
			}
			for j := 0; j < l.len(); j++ {
				e := l.entry(j)
				if v, ok := ref[int(e.tid)]; !ok || v != e.t || l.find(int(e.tid)) != j {
					t.Fatalf("iter %d step %d: entry %d = %+v, map %v", iter, step, j, *e, ref)
				}
			}
		}
		if promotions > 1 {
			t.Fatalf("iter %d: promoted %d times, want at most once", iter, promotions)
		}
	}
}

// TestFlushReadMatchesDenseHatR feeds arbitrary (clock, owner) flushes to
// the exception representation and to dense R_x / ȒR_x clocks: the
// identity ȒR_x(u) = R_x(u) outside the listed exceptions is algebraic,
// so it must hold for any sequence of flushes, not only those a trace
// produces. Most clocks carry only their owner's component, like
// concurrent readers, so lists grow past the threshold and the indexed
// path runs too.
func TestFlushReadMatchesDenseHatR(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	indexed := 0
	for iter := 0; iter < 300; iter++ {
		b := newOptimizedGenericFlat()
		v := b.ensureVar(0)
		var rx, hrx vc.Clock
		width := 1 + r.Intn(3*vc.PromoteThreshold)
		for step := 0; step < 80; step++ {
			u := r.Intn(width)
			c := newFlatClock()
			if r.Intn(4) != 0 {
				c.c = c.c.Set(u, vc.Time(1+r.Intn(20)))
			} else {
				for k := 0; k < 1+r.Intn(width); k++ {
					c.c = c.c.Set(r.Intn(width), vc.Time(1+r.Intn(20)))
				}
			}
			b.flushRead(v, c, u)
			rx = rx.Join(c.c)
			hrx = hrx.JoinZeroing(c.c, u)
			for w := 0; w < width; w++ {
				if got, want := b.hrxAt(v, w), hrx.At(w); got != want {
					t.Fatalf("iter %d step %d: ȒR_x(%d) = %d, want %d (R_x %v, ȒR_x %v)",
						iter, step, w, got, want, rx, hrx)
				}
				if got, want := v.rx.At(w), rx.At(w); got != want {
					t.Fatalf("iter %d step %d: R_x(%d) = %d, want %d", iter, step, w, got, want)
				}
			}
			for j := 0; j < v.hrx.len(); j++ {
				if e := v.hrx.entry(j); e.t >= rx.At(int(e.tid)) {
					t.Fatalf("iter %d step %d: listed %+v is no exception (R_x %v)", iter, step, *e, rx)
				}
			}
		}
		if v.hrx.indexed() {
			indexed++
		}
	}
	if indexed == 0 {
		t.Fatal("no exception list reached the indexed form")
	}
}

// maxReadStateLists returns the longest ȒR_x exception list and the
// longest update-set mark list over an engine's variables.
func maxReadStateLists(vars []hybridEngVar) (hrx, marks int) {
	for i := range vars {
		v := &vars[i]
		hrx = max(hrx, v.hrx.len())
		marks = max(marks, v.markR.len(), v.markW.len())
	}
	return hrx, marks
}

// TestReadStateStaysShortOnChain pins the point of the lists: on the
// chain shape each reader absorbs the earlier readers' stamps, so no
// variable's exception or mark list grows past a handful of entries and
// none promotes. The other introspection counters are the values the
// dense ȒR_x and mark vectors produced: the representation must not change
// which ends propagate, which checks hit their epochs, or which thread
// clocks change representation.
func TestReadStateStaysShortOnChain(t *testing.T) {
	chain := trace.Collect(workload.New(workload.Config{
		Threads: 256, Vars: 8192, Locks: 32, Events: 50_000, OpsPerTxn: 4,
		Pattern: workload.PatternChain, TxnFraction: 0.5, Seed: 1,
	}))
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		want EngineStats
	}{
		{"chain-t256", chain, EngineStats{EpochHits: 462, EpochMisses: 21076,
			EndsFull: 5686, EndsCollected: 0, TreeDemotions: 255, WidthPromotions: 15}},
		{"phase-shift", phaseShift(), EngineStats{EpochHits: 0, EpochMisses: 128,
			EndsFull: 383, EndsCollected: 1}},
	} {
		eng := NewOptimizedAuto()
		if v, _ := Run(eng, c.tr.Cursor()); v != nil {
			t.Fatalf("%s: unexpected violation: %v", c.name, v)
		}
		if got := eng.Stats(); got != c.want {
			t.Fatalf("%s: stats %+v, want %+v", c.name, got, c.want)
		}
		if hrx, marks := maxReadStateLists(eng.vars); hrx > 4 || marks > 4 {
			t.Fatalf("%s: longest exception list %d, mark list %d, want ≤ 4", c.name, hrx, marks)
		}
	}
}

// TestConcurrentReadersAgreement runs the concurrent-readers shape past
// the byte fuzzer's 16-thread cap: at 8 readers the lists stay linear, at
// 17 and 64 they promote to the indexed form, and in every round the
// writer's clock carries all readers' stamps to the next round, whose
// flushes delete the exceptions. Every representation must agree with
// the flat engine exactly, and Basic and ReadOpt on the verdict.
func TestConcurrentReadersAgreement(t *testing.T) {
	for _, readers := range []int{8, 17, 64} {
		for _, violating := range []bool{false, true} {
			tr := testutil.ConcurrentReadersTrace(readers, 3, int64(readers))
			name := fmt.Sprintf("readers-%d", readers)
			if violating {
				tr = testutil.ConcurrentReadersViolatingTrace(readers, 3, int64(readers))
				name += "-violating"
			}
			t.Run(name, func(t *testing.T) {
				src := func() trace.Source { return tr.Cursor() }
				assertRepAgreement(t, name, src)
				assertBasicAgreement(t, name, src)
				vBasic, _ := Run(NewBasic(), src())
				vRead, _ := Run(NewReadOpt(), src())
				if (vBasic != nil) != violating || (vRead != nil) != violating {
					t.Fatalf("basic violation=%v readopt violation=%v, want %v",
						vBasic != nil, vRead != nil, violating)
				}
				eng := NewOptimized()
				Run(eng, src())
				if promoted := eng.Stats().SparsePromotions > 0; promoted != (readers > vc.PromoteThreshold) {
					t.Fatalf("%d readers: promoted=%v", readers, promoted)
				}
				if violating {
					return
				}
				// The closing unary read of the last round's hot variable (x0
				// after four rounds over three variables) absorbed the
				// writer's clock, so its flush deleted every other reader's
				// exception on that variable.
				last := &eng.vars[0]
				if n := last.hrx.len(); n > 1 {
					t.Fatalf("%d readers: %d exceptions left on the last hot variable, want ≤ 1", readers, n)
				}
			})
		}
	}
}
