// Code generated from optimized_generic.go by specialize_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/core -run TestFlatSpecializationInSync -update-flat-engine

package core

import (
	"aerodrome/internal/trace"
	"aerodrome/internal/vc"
)

// epochSlot caches one successful checkAndGet: thread `thread` absorbed
// clock `src` at version srcVer while its begin clock was at cbVer, and no
// violation fired. While all three still match, re-running the check is
// provably a no-op (the begin clock is unchanged, so the violation
// predicate evaluates identically, and the thread clock only grows, so
// the join is absorbed already) — the whole O(width) Leq+Join is skipped.
type flatEpochSlot struct {
	thread int32
	src    *flatClock
	srcVer uint64
	cbVer  uint64
}

type flatEngThread struct {
	c     *flatClock
	cb    *flatClock
	depth int
	init  bool
	ran   bool
	// foreign is the sticky foreign-component test C_t[0/t] ≠ ⊥ that
	// drives transaction garbage collection, maintained incrementally at
	// every join instead of rescanning the clock at each end event.
	foreign bool
	// activeIdx is this thread's position in the engine's active list
	// (-1 while no outermost transaction is open).
	activeIdx int32
	// updR / updW are the paper's UpdateSetʳ_t / UpdateSetʷ_t, as slices
	// of variable IDs deduplicated through the variables' markR/markW
	// lists (one entry per variable per transaction).
	updR, updW []int32
	// relLocks lists the locks whose lastRel is this thread, so the GC
	// path resets them without sweeping the lock table.
	relLocks []int32
	// dirtyLocks lists the locks whose clock may carry this thread's
	// current begin stamp, so the full propagation path visits only
	// locks that can satisfy L_ℓ(t) ≥ *flatClock⊲_t(t).
	dirtyLocks []int32
	// dirtyThreads is the same for thread clocks: the threads whose clock
	// may carry this thread's current begin stamp. The full propagation
	// path's thread checks visit only these instead of sweeping b.threads.
	dirtyThreads []int32
	// markedT.At(u) is the begin stamp of the transaction that last put
	// thread u on dirtyThreads (cf. optLock.marked).
	markedT vc.Clock
	// joinSlot is the epoch for join(u) checks against this thread.
	joinSlot flatEpochSlot
}

type flatEngLock struct {
	l       *flatClock
	lastRel int32
	// relIdx is this lock's position in the lastRel thread's relLocks.
	relIdx int32
	// marked.At(u) is the begin stamp of the transaction that last put
	// this lock on u's dirtyLocks (stamps strictly increase, so equality
	// means "already listed this transaction").
	marked vc.Clock
	slot   flatEpochSlot
}

type flatEngVar struct {
	w     *flatClock
	lastW int32
	// staleW is the paper's Staleʷ_x = ⊤: the last write's timestamp has not
	// been written to w because the writing transaction is still running;
	// readers consult the writer's live clock instead.
	staleW bool
	rx     *flatClock // R_x
	// hrx holds ȒR_x as its exceptions to R_x: (u, ȒR_x(u)) for each thread
	// u with ȒR_x(u) < R_x(u), i.e. a reader whose own stamp in R_x no
	// other reader's flush has carried yet. Every R_x update is a reader
	// u's flush, which joins C_u into R_x and C_u[0/u] into ȒR_x, so at
	// every unlisted thread the two agree (see flushRead and hrxAt).
	hrx tidList
	// staleR is the paper's Staleʳ_x: threads whose reads of x (inside still
	// running transactions) have not been flushed into rx/hrx.
	staleR []int32
	// markR/markW deduplicate update-set membership (see optThread.updR):
	// (u, *flatClock⊲_u(u)) for each open transaction of u that already lists x.
	// An entry whose transaction has closed is dead; markOpen drops dead
	// entries as the lists grow, so they hold about one entry per open
	// transaction covering x instead of one stamp per thread.
	markR, markW tidList
	slot         flatEpochSlot
	// readSlot skips the unary-read flush (the O(width) R_x join and the
	// ȒR_x exception update) when the same thread re-reads x with an
	// unchanged clock: the flush is then a no-op. (coverRead still runs;
	// it is O(active transactions).)
	readSlot accessSlot
	// writeSlot is the same for repeat writes: with no stale readers and
	// unchanged clocks, the write handler's flush, check and updates are
	// all idempotent (coverWrite still runs).
	writeSlot accessSlot
}

// OptimizedOn is Algorithm 3 (Appendix *flatClock.2) — AeroDrome with lazy clock
// updates, per-thread update sets, and garbage collection of transactions
// with no incoming edges — parameterized over the clock representation *flatClock
// (flat vector clocks or tree clocks; see clockRep). On top of the paper's
// algorithm it keeps the per-event cost sublinear in thread count:
//
//   - an active-transaction registry replaces the all-threads scans of the
//     UpdateSet loops (coverRead/coverWrite touch only open transactions);
//   - per-thread released-lock and dirty-lock lists replace the end-event
//     sweeps over the whole lock table;
//   - the foreign-component test behind transaction GC is maintained
//     incrementally (O(1) per end event);
//   - epoch fast paths skip the Leq+Join of checkAndGet entirely when the
//     same (source clock, version) was already absorbed under the current
//     begin clock — the FastTrack-style same-epoch case.
//
// Laziness makes detection points earlier-or-equal than Basic's, never
// later: while an accessing transaction is still running, readers and
// writers consult its live clock, which dominates the access event's clock,
// and every component of a live clock still witnesses a real ⋖Txn path, so
// any check that fires corresponds to a genuine cycle (the differential
// tests assert verdict equality with Basic and Index(Optimized) ≤
// Index(Basic)).
//
// Deviations from the printed pseudocode, each justified in the package
// comment and enforced by tests:
//
//   - hasIncomingEdge uses the sticky foreign-component test C_t[0/t] ≠ ⊥
//     (printed: begin-vs-end clock comparison, which misses program-order
//     incoming edges from retained predecessors; TestGCChainCounterexample).
//   - accesses outside any transaction (unary transactions) take the eager
//     Algorithm 2 path: a unary transaction completes immediately, so its
//     thread's live clock must not be consulted later.
//   - update-set membership is also refreshed when rx/W grow at end-event
//     flushes, so end-time conditions match Algorithm 1's, which evaluates
//     them against the current clock values rather than access-time values.
type Optimized struct {
	newClock func() *flatClock
	// newAux, when non-nil, constructs the auxiliary-accumulator clocks
	// (lock clocks, W_x, R_x) instead of newClock: the hybrid engine keeps
	// those flat while the thread clocks are trees. The uniform engines
	// leave it nil and use one constructor for both.
	newAux  func() *flatClock
	name    string
	threads []flatEngThread
	locks   []flatEngLock
	vars    []flatEngVar
	// active lists the threads with an open outermost transaction, in no
	// particular order (swap-removed at end events).
	active []int32
	n      int64
	viol   *Violation
	// endsProcessed / endsCollected count end events that took the full
	// propagation path vs. the garbage-collection fast path (ablation
	// observability).
	endsProcessed int64
	endsCollected int64
	// epochHits / epochMisses count checkAndGet calls resolved by the
	// epoch fast path vs. falling through to the full Leq+Join.
	epochHits   int64
	epochMisses int64
	// sparsePromotions counts per-variable tidLists (ȒR_x exceptions,
	// update-set marks) promoting to their indexed form.
	sparsePromotions int64
	// repStats, set by the hybrid/auto constructors, shares the
	// representation-transition counters with the thread clocks.
	repStats *repStats
}

// Name implements Engine.
func (b *Optimized) Name() string { return b.name }

// Processed implements Engine.
func (b *Optimized) Processed() int64 { return b.n }

// Violation implements Engine.
func (b *Optimized) Violation() *Violation { return b.viol }

// EndStats reports how many outermost end events took the full propagation
// path vs. the GC fast path.
func (b *Optimized) EndStats() (full, collected int64) {
	return b.endsProcessed, b.endsCollected
}

// Stats implements StatsReporter.
func (b *Optimized) Stats() EngineStats {
	s := EngineStats{
		EpochHits:        b.epochHits,
		EpochMisses:      b.epochMisses,
		EndsFull:         b.endsProcessed,
		EndsCollected:    b.endsCollected,
		SparsePromotions: b.sparsePromotions,
	}
	if b.repStats != nil {
		s.TreeDemotions = b.repStats.demotions
		s.TreeRepromotions = b.repStats.repromotions
		s.WidthPromotions = b.repStats.widthPromotions
	}
	return s
}

func (b *Optimized) ensureThread(t int) *flatEngThread {
	for len(b.threads) <= t {
		b.threads = append(b.threads, flatEngThread{activeIdx: -1})
	}
	ts := &b.threads[t]
	if !ts.init {
		ts.c = b.newClock()
		ts.c.InitUnit(t)
		// The begin clock is a read-only snapshot of the thread clock, so
		// it takes the auxiliary representation: the hybrid engine keeps it
		// flat and the monotone copy at every begin degenerates to an O(1)
		// copy-on-write alias of the thread clock's flat view.
		ts.cb = b.newAuxClock()
		ts.init = true
	}
	return ts
}

// newAuxClock constructs an auxiliary-accumulator clock (see newAux).
func (b *Optimized) newAuxClock() *flatClock {
	if b.newAux != nil {
		return b.newAux()
	}
	return b.newClock()
}

func (b *Optimized) ensureLock(l int) *flatEngLock {
	for len(b.locks) <= l {
		b.locks = append(b.locks, flatEngLock{lastRel: nilThread, relIdx: -1})
	}
	lk := &b.locks[l]
	var zero *flatClock
	if lk.l == zero {
		// Lazy clock allocation: only locks that are actually used pay for
		// their clock (the pool can be much larger than the touched set).
		lk.l = b.newAuxClock()
	}
	return lk
}

func (b *Optimized) ensureVar(x int) *flatEngVar {
	for len(b.vars) <= x {
		b.vars = append(b.vars, flatEngVar{lastW: nilThread})
	}
	v := &b.vars[x]
	var zero *flatClock
	if v.w == zero {
		// Lazy clock allocation, as in ensureLock.
		v.w = b.newAuxClock()
		v.rx = b.newAuxClock()
	}
	return v
}

// checkAndGet implements the paper's procedure of the same name: declare a
// violation if *flatClock⊲_t ⊑ clk and t has an active transaction, else C_t ⊔= clk.
// slot, when non-nil, is the epoch cache for this (source, thread) pair.
func (b *Optimized) checkAndGet(clk *flatClock, t int, e trace.Event, active trace.ThreadID, check CheckKind, slot *flatEpochSlot) bool {
	ts := &b.threads[t]
	srcVer := clk.Ver()
	cbVer := ts.cb.Ver()
	if slot != nil && slot.thread == int32(t) && slot.src == clk &&
		slot.srcVer == srcVer && slot.cbVer == cbVer {
		b.epochHits++
		return false // epoch fast path: already checked and absorbed
	}
	b.epochMisses++
	if ts.depth > 0 && ts.cb.Leq(clk) {
		b.viol = &Violation{
			Index: b.n, Event: e, ActiveThread: active,
			Check: check, Algorithm: b.Name(),
		}
		return true
	}
	ts.c.Join(clk)
	if clk.HasEntryOtherThan(t) {
		ts.foreign = true
	}
	b.markThreadDirty(t, clk)
	if slot != nil {
		slot.thread = int32(t)
		slot.src = clk
		slot.srcVer = srcVer
		slot.cbVer = cbVer
	}
	return false
}

// writeClockFor returns the clock readers and writers must consult for the
// last write to v: the writer's live clock while its transaction is still
// running (Staleʷ = ⊤), otherwise the flushed W_x.
func (b *Optimized) writeClockFor(v *flatEngVar) *flatClock {
	if v.staleW && v.lastW >= 0 {
		return b.threads[v.lastW].c
	}
	return v.w
}

// coverRead records x in the update set of every thread whose active
// transaction's begin is dominated by clk (the paper's UpdateSetʳ loop).
// Under the local-time invariant, *flatClock⊲_u ⊑ clk ⟺ *flatClock⊲_u(u) ≤ clk(u), and only
// threads on the active list can qualify.
func (b *Optimized) coverRead(x int32, clk *flatClock) {
	for _, u := range b.active {
		us := &b.threads[u]
		own := us.cb.At(int(u))
		if own <= clk.At(int(u)) && b.markOpen(&b.vars[x].markR, u, own) {
			us.updR = append(us.updR, x)
		}
	}
}

// coverWrite is coverRead for UpdateSetʷ.
func (b *Optimized) coverWrite(x int32, clk *flatClock) {
	for _, u := range b.active {
		us := &b.threads[u]
		own := us.cb.At(int(u))
		if own <= clk.At(int(u)) && b.markOpen(&b.vars[x].markW, u, own) {
			us.updW = append(us.updW, x)
		}
	}
}

// markOpen records in m that thread u's open transaction, whose begin
// stamp is own, lists the variable, and reports whether it was not
// recorded yet. Entries of closed transactions (the thread has no open
// transaction, or one with another stamp) are dead and pruned before the
// list grows; pruning is amortized O(1), so coverRead stays O(active).
func (b *Optimized) markOpen(m *tidList, u int32, own vc.Time) bool {
	if i := m.find(int(u)); i >= 0 {
		if m.entry(i).t == own {
			return false
		}
		m.setAt(i, own)
		return true
	}
	m.prune(func(e tidEntry) bool {
		ws := &b.threads[e.tid]
		return ws.activeIdx < 0 || ws.cb.At(int(e.tid)) != e.t
	})
	if m.add(int(u), own) {
		b.sparsePromotions++
	}
	return true
}

// flushRead flushes reader u's clock c into x's read clocks: R_x ⊔= c and
// ȒR_x ⊔= c[0/u], with ȒR_x kept as its exceptions to R_x (optVar.hrx).
// An unlisted thread w ≠ u stays unlisted, since both clocks take c(w). A
// listed w ≠ u changes only if c(w) > ȒR_x(w): it leaves the list once
// c(w) reaches R_x(w) and otherwise takes c(w). u itself is skipped by
// the ȒR_x join, so if R_x(u) grows past an unlisted ȒR_x(u) = R_x(u), u
// is listed with the old value. Beside the R_x join this costs one step
// per listed thread.
func (b *Optimized) flushRead(v *flatEngVar, c *flatClock, u int) {
	old := v.rx.At(u)
	v.rx.Join(c)
	d := &v.hrx
	listed := false
	es := d.entries()
	for i := 0; i < len(es); {
		w := int(es[i].tid)
		if w == u {
			listed = true
		} else if cw := c.At(w); cw > es[i].t {
			if cw >= v.rx.At(w) {
				d.deleteAt(i) // moves es[len(es)-1] to es[i]
				es = es[:len(es)-1]
				continue
			}
			d.setAt(i, cw)
		}
		i++
	}
	if !listed && v.rx.At(u) > old && d.add(u, old) {
		b.sparsePromotions++
	}
}

// hrxAt returns ȒR_x(u): u's exception if listed, else R_x(u).
func (b *Optimized) hrxAt(v *flatEngVar, u int) vc.Time {
	if i := v.hrx.find(u); i >= 0 {
		return v.hrx.entry(i).t
	}
	return v.rx.At(u)
}

// markThreadDirty lists thread u on the dirty-thread list of every active
// transaction whose begin stamp appears in clk, which was just joined
// into u's clock. Thread clocks change only at the join sites that call
// this (checkAndGet, the write-event R_x absorb, fork, and end-event
// propagation), so at any thread's end event every thread with
// C_u(t) ≥ *flatClock⊲_t(t) is on t's list (stale entries are re-checked there).
func (b *Optimized) markThreadDirty(u int, clk *flatClock) {
	for _, t2 := range b.active {
		if int(t2) == u {
			continue
		}
		ts2 := &b.threads[t2]
		own := ts2.cb.At(int(t2))
		if clk.At(int(t2)) >= own && ts2.markedT.At(u) != own {
			ts2.markedT = ts2.markedT.Set(u, own)
			ts2.dirtyThreads = append(ts2.dirtyThreads, int32(u))
		}
	}
}

// markLockDirty lists ℓ on the dirty-lock list of every active transaction
// whose begin stamp appears in clk (the clock just stored into L_ℓ). Lock
// clocks change only at releases and end-event propagations, and both call
// this, so at any thread's end event every lock with L_ℓ(t) ≥ *flatClock⊲_t(t) is
// on that thread's list (stale entries are re-checked there).
func (b *Optimized) markLockDirty(li int32, clk *flatClock) {
	for _, u := range b.active {
		us := &b.threads[u]
		own := us.cb.At(int(u))
		if clk.At(int(u)) >= own {
			l := &b.locks[li]
			if l.marked.At(int(u)) != own {
				l.marked = l.marked.Set(int(u), own)
				us.dirtyLocks = append(us.dirtyLocks, li)
			}
		}
	}
}

// dropRelLock removes lock li from its current lastRel owner's relLocks.
func (b *Optimized) dropRelLock(owner int32, idx int32) {
	os := &b.threads[owner]
	last := len(os.relLocks) - 1
	moved := os.relLocks[last]
	os.relLocks[idx] = moved
	os.relLocks = os.relLocks[:last]
	if int(idx) <= last-1 {
		b.locks[moved].relIdx = idx
	}
}

// removeActive swap-removes t from the active-transaction registry.
func (b *Optimized) removeActive(t int) {
	ts := &b.threads[t]
	last := len(b.active) - 1
	moved := b.active[last]
	b.active[ts.activeIdx] = moved
	b.active = b.active[:last]
	b.threads[moved].activeIdx = ts.activeIdx
	ts.activeIdx = -1
}

// Process implements Engine.
func (b *Optimized) Process(e trace.Event) *Violation {
	if b.viol != nil {
		return b.viol
	}
	t := int(e.Thread)
	ts := b.ensureThread(t)

	switch e.Kind {
	case trace.Begin:
		if ts.depth == 0 {
			ts.c.Inc(t)
			ts.cb.MonotoneCopyFrom(ts.c)
			ts.activeIdx = int32(len(b.active))
			b.active = append(b.active, int32(t))
		}
		ts.depth++

	case trace.End:
		ts.depth--
		if ts.depth == 0 {
			b.removeActive(t)
			b.handleEnd(t, e)
		}

	case trace.Read:
		x := e.Target
		v := b.ensureVar(int(x))
		if v.lastW != int32(t) {
			if b.checkAndGet(b.writeClockFor(v), t, e, e.Thread, CheckRead, &v.slot) {
				break
			}
		}
		ct := b.threads[t].c
		if ts.depth > 0 {
			v.addStaleReader(int32(t))
		} else {
			// Unary read: flush eagerly; the unary transaction is complete,
			// so the live clock must not be consulted later. A repeat flush
			// by the same thread under an unchanged clock is a no-op.
			if !(v.readSlot.thread == int32(t) && v.readSlot.ctVer == ct.Ver()) {
				b.flushRead(v, ct, t)
				v.readSlot = accessSlot{thread: int32(t), ctVer: ct.Ver()}
			}
		}
		b.coverRead(x, ct)

	case trace.Write:
		x := e.Target
		v := b.ensureVar(int(x))
		if v.lastW != int32(t) {
			if b.checkAndGet(b.writeClockFor(v), t, e, e.Thread, CheckWriteWrite, &v.slot) {
				break
			}
		}
		// Repeat-write fast path: the same thread rewriting x under the
		// same begin clock with its clock, R_x, W_x and ȒR_x(t) unchanged
		// re-runs a handler whose O(width) steps are all no-ops; only the
		// O(active) coverWrite below still has observable work to do.
		if v.lastW == int32(t) && len(v.staleR) == 0 &&
			v.writeSlot.thread == int32(t) && v.writeSlot.ctVer == ts.c.Ver() &&
			v.writeSlot.rxVer == v.rx.Ver() && v.writeSlot.wVer == v.w.Ver() &&
			v.writeSlot.cbVer == ts.cb.Ver() &&
			v.writeSlot.wasInTxn == (ts.depth > 0) &&
			v.writeSlot.hrxVer == v.hrx.ver {
			b.coverWrite(x, ts.c)
			break
		}
		// Flush stale readers with their live clocks; record any newly
		// covered begins so end-time flushes stay exact.
		for _, u := range v.staleR {
			uc := b.threads[u].c
			b.flushRead(v, uc, int(u))
			b.coverRead(x, uc)
		}
		v.staleR = v.staleR[:0]
		// The ȒR check: ∃u≠t with *flatClock⊲_t ⊑ R_{u,x}, via the begin clock's own
		// component (see the package comment).
		if ts.depth > 0 && ts.cb.At(t) <= b.hrxAt(v, t) {
			b.viol = &Violation{
				Index: b.n, Event: e, ActiveThread: e.Thread,
				Check: CheckWriteRead, Algorithm: b.Name(),
			}
			break
		}
		ts.c.Join(v.rx)
		if v.rx.HasEntryOtherThan(t) {
			ts.foreign = true
		}
		b.markThreadDirty(t, v.rx)
		if ts.depth > 0 {
			v.staleW = true // lazy: readers consult C_t while the txn runs
		} else {
			v.w.CopyFrom(ts.c) // unary write: eager
			v.staleW = false
		}
		v.lastW = int32(t)
		b.coverWrite(x, ts.c)
		v.writeSlot = accessSlot{
			thread: int32(t), wasInTxn: ts.depth > 0,
			ctVer: ts.c.Ver(), rxVer: v.rx.Ver(), wVer: v.w.Ver(),
			cbVer: ts.cb.Ver(), hrxVer: v.hrx.ver,
		}

	case trace.Acquire:
		l := b.ensureLock(int(e.Target))
		if l.lastRel != int32(t) {
			if b.checkAndGet(l.l, t, e, e.Thread, CheckAcquire, &l.slot) {
				break
			}
		}

	case trace.Release:
		li := e.Target
		l := b.ensureLock(int(li))
		l.l.CopyFrom(ts.c)
		if l.lastRel != int32(t) {
			if l.lastRel != nilThread {
				b.dropRelLock(l.lastRel, l.relIdx)
			}
			l.lastRel = int32(t)
			l.relIdx = int32(len(ts.relLocks))
			ts.relLocks = append(ts.relLocks, li)
		}
		b.markLockDirty(li, ts.c)

	case trace.Fork:
		u := int(e.Target)
		us := b.ensureThread(u)
		us.c.Join(b.threads[t].c)
		if u != t {
			us.foreign = true // the parent clock carries t's component
		}
		b.markThreadDirty(u, b.threads[t].c)

	case trace.Join:
		us := b.ensureThread(int(e.Target))
		// See Basic: never-ran threads contribute no ≤CHB edges.
		if us.ran {
			if b.checkAndGet(us.c, t, e, e.Thread, CheckJoin, &us.joinSlot) {
				break
			}
		}
	}
	// Re-index: the fork/join cases may have grown b.threads, invalidating
	// the ts pointer captured above.
	b.threads[t].ran = true
	b.n++
	if b.viol != nil {
		return b.viol
	}
	return nil
}

// handleEnd implements Algorithm 3's end(t) with the full-propagation and
// garbage-collection branches. The foreign flag is the sticky incoming-edge
// test: C_t carries a foreign component (forked threads inherit the
// parent's components, so the printed "parent transaction alive" disjunct
// is subsumed).
func (b *Optimized) handleEnd(t int, e trace.Event) {
	ts := &b.threads[t]
	ct, cbt := ts.c, ts.cb

	if ts.foreign {
		b.endsProcessed++
		// Thread checks (the component test *flatClock⊲_t(t) ≤ C_u(t) is the
		// invariant form of *flatClock⊲_t ⊑ C_u), over the dirty-thread list: only
		// threads whose clock absorbed this transaction's begin stamp can
		// pass the gate. The violation pass runs first and reports the
		// lowest qualifying thread — the order the index sweep it replaces
		// would discover (the checks and joins are independent across
		// threads, so the split does not change any outcome).
		own := cbt.At(t)
		violAt := -1
		for _, ui := range ts.dirtyThreads {
			us := &b.threads[ui]
			if us.c.At(t) >= own && us.depth > 0 && us.cb.Leq(ct) &&
				(violAt < 0 || int(ui) < violAt) {
				violAt = int(ui)
			}
		}
		if violAt >= 0 {
			b.viol = &Violation{
				Index: b.n, Event: e, ActiveThread: trace.ThreadID(violAt),
				Check: CheckEnd, Algorithm: b.Name(),
			}
			return
		}
		for _, ui := range ts.dirtyThreads {
			us := &b.threads[ui]
			if us.c.At(t) >= own {
				us.c.Join(ct)
				us.foreign = true // ct carries t's begin stamp
				b.markThreadDirty(int(ui), ct)
			}
		}
		ts.dirtyThreads = ts.dirtyThreads[:0]
		for _, li := range ts.dirtyLocks {
			l := &b.locks[li]
			if l.l.At(t) >= own {
				l.l.Join(ct)
				b.markLockDirty(li, ct)
			}
		}
		ts.dirtyLocks = ts.dirtyLocks[:0]
		for _, x := range ts.updW {
			v := &b.vars[x]
			if !v.staleW || v.lastW == int32(t) {
				v.w.Join(ct)
				b.coverWrite(x, ct)
			}
			if v.lastW == int32(t) {
				v.staleW = false
			}
		}
		ts.updW = ts.updW[:0]
		for _, x := range ts.updR {
			v := &b.vars[x]
			b.flushRead(v, ct, t)
			v.removeStaleReader(int32(t))
			b.coverRead(x, ct)
		}
		ts.updR = ts.updR[:0]
		return
	}

	// Garbage collection: the transaction has no incoming edges and can
	// never participate in a cycle; drop its lazy state instead of
	// propagating it (the paper's else-branch). The released-lock list
	// stands in for the lock-table sweep of the printed pseudocode.
	b.endsCollected++
	for _, x := range ts.updR {
		b.vars[x].removeStaleReader(int32(t))
	}
	ts.updR = ts.updR[:0]
	for _, x := range ts.updW {
		v := &b.vars[x]
		if v.lastW == int32(t) {
			v.staleW = false
			v.lastW = nilThread
		}
	}
	ts.updW = ts.updW[:0]
	for _, li := range ts.relLocks {
		b.locks[li].lastRel = nilThread
	}
	ts.relLocks = ts.relLocks[:0]
	ts.dirtyLocks = ts.dirtyLocks[:0]
	ts.dirtyThreads = ts.dirtyThreads[:0]
}

func (v *flatEngVar) addStaleReader(t int32) {
	for _, u := range v.staleR {
		if u == t {
			return
		}
	}
	v.staleR = append(v.staleR, t)
}

func (v *flatEngVar) removeStaleReader(t int32) {
	for i, u := range v.staleR {
		if u == t {
			v.staleR[i] = v.staleR[len(v.staleR)-1]
			v.staleR = v.staleR[:len(v.staleR)-1]
			return
		}
	}
}
