package testutil

// Deterministic builders for the scenario-zoo trace shapes:
// producer-consumer, barrier phases, lock convoy, and quota-thrash. They
// mirror the streaming generators in internal/workload but are pure
// builder code with no randomness, so they can serve as fuzz-corpus seeds
// (they fit the byte-program format's 16-thread/16-lock/256-variable
// limits at the default sizes) and as fixtures for differential suites
// that want the shape without the workload package's rng plumbing. All
// four are conflict serializable by construction: transactions are
// emitted whole, one after another, so every conflict edge points forward
// in commit order.
//
// The wide shape (WideTrace, WideViolatingTrace) and the concurrent-readers
// shape (ConcurrentReadersTrace, ConcurrentReadersViolatingTrace) are the
// exceptions: they are seeded, and they exist to be wider than the byte
// format's 16 threads, so that joins raise, and per-variable read state
// holds, more entries than the fuzzers can reach.

import (
	"math/rand"

	"aerodrome/internal/trace"
)

// ProducerConsumerOpts controls ProducerConsumerTrace.
type ProducerConsumerOpts struct {
	// Producers and Consumers are the worker counts per role (≥1 each;
	// thread 0 is the forking main thread and takes no body part).
	Producers, Consumers int
	// Rounds is how many producer/consumer transaction pairs run.
	Rounds int
	// Slots is the bounded ring size (default 4). The consumer trails the
	// producer by half the ring.
	Slots int
}

// ProducerConsumerTrace builds the bounded-ring hand-off shape: producers
// write slots in rotation, consumers read them half a ring later. Every
// round's write-read edge crosses the producer/consumer group boundary.
func ProducerConsumerTrace(o ProducerConsumerOpts) *trace.Trace {
	if o.Producers < 1 {
		o.Producers = 1
	}
	if o.Consumers < 1 {
		o.Consumers = 1
	}
	if o.Slots < 2 {
		o.Slots = 4
	}
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	lag := o.Slots / 2
	if lag < 1 {
		lag = 1
	}
	b := trace.NewBuilder()
	main := b.Thread("t0")
	prods := make([]trace.ThreadID, o.Producers)
	for i := range prods {
		prods[i] = b.Thread("p" + suffix(i))
	}
	cons := make([]trace.ThreadID, o.Consumers)
	for i := range cons {
		cons[i] = b.Thread("c" + suffix(i))
	}
	slots := make([]trace.VarID, o.Slots)
	for i := range slots {
		slots[i] = b.Var("slot" + suffix(i))
	}
	acks := make([]trace.VarID, o.Consumers)
	for i := range acks {
		acks[i] = b.Var("ack" + suffix(i))
	}
	for _, t := range prods {
		b.Fork(main, t)
	}
	for _, t := range cons {
		b.Fork(main, t)
	}
	for r := 0; r < o.Rounds; r++ {
		p := prods[r%o.Producers]
		b.Begin(p)
		b.Write(p, slots[r%o.Slots])
		b.End(p)
		if r >= lag {
			c := cons[r%o.Consumers]
			b.Begin(c)
			b.Read(c, slots[(r-lag)%o.Slots])
			b.Write(c, acks[r%o.Consumers])
			b.End(c)
		}
	}
	for _, t := range prods {
		b.Join(main, t)
	}
	for _, t := range cons {
		b.Join(main, t)
	}
	return mustValid(b.Build(), "producer-consumer")
}

// BarrierOpts controls BarrierPhasesTrace.
type BarrierOpts struct {
	// Threads is the total thread count including the coordinating main
	// thread (≥2).
	Threads int
	// Phases is the number of barrier generations.
	Phases int
	// OpsPerTxn is the private work per worker transaction (default 2).
	OpsPerTxn int
}

// BarrierPhasesTrace builds the barrier-phase shape: per phase, every
// worker transaction reads the previous generation, does private work and
// writes its arrival flag; the coordinator reads every flag and writes
// the next generation. The coordinator is the fan-in/fan-out hub of every
// phase's vector-clock joins.
func BarrierPhasesTrace(o BarrierOpts) *trace.Trace {
	if o.Threads < 2 {
		o.Threads = 2
	}
	if o.Phases < 1 {
		o.Phases = 1
	}
	if o.OpsPerTxn < 1 {
		o.OpsPerTxn = 2
	}
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, o.Threads)
	for i := range threads {
		threads[i] = b.Thread("t" + suffix(i))
	}
	gen := b.Var("gen")
	flags := make([]trace.VarID, o.Threads)
	private := make([][]trace.VarID, o.Threads)
	for i := 1; i < o.Threads; i++ {
		flags[i] = b.Var("flag" + suffix(i))
		private[i] = make([]trace.VarID, o.OpsPerTxn)
		for j := range private[i] {
			private[i][j] = b.Var("p" + suffix(i) + "_" + suffix(j))
		}
	}
	for i := 1; i < o.Threads; i++ {
		b.Fork(threads[0], threads[i])
	}
	for phase := 0; phase < o.Phases; phase++ {
		for w := 1; w < o.Threads; w++ {
			b.Begin(threads[w])
			if phase > 0 {
				b.Read(threads[w], gen)
			}
			for j := 0; j < o.OpsPerTxn; j++ {
				if (phase+j)%2 == 0 {
					b.Write(threads[w], private[w][j])
				} else {
					b.Read(threads[w], private[w][j])
				}
			}
			b.Write(threads[w], flags[w])
			b.End(threads[w])
		}
		b.Begin(threads[0])
		for w := 1; w < o.Threads; w++ {
			b.Read(threads[0], flags[w])
		}
		b.Write(threads[0], gen)
		b.End(threads[0])
	}
	for i := 1; i < o.Threads; i++ {
		b.Join(threads[0], threads[i])
	}
	return mustValid(b.Build(), "barrier-phases")
}

// LockConvoyOpts controls LockConvoyTrace.
type LockConvoyOpts struct {
	// Threads is the total thread count including the forking main thread
	// (≥2).
	Threads int
	// Rounds is the number of critical sections funneled through the hot
	// lock.
	Rounds int
	// Nested, when set, nests a second lock inside every fourth critical
	// section.
	Nested bool
}

// LockConvoyTrace builds the convoy shape: every worker transaction takes
// the single hot lock around a read-modify-write of one shared variable,
// then does a private access outside the lock. The release→acquire chain
// through the hot lock entangles every thread clock.
func LockConvoyTrace(o LockConvoyOpts) *trace.Trace {
	if o.Threads < 2 {
		o.Threads = 2
	}
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, o.Threads)
	for i := range threads {
		threads[i] = b.Thread("t" + suffix(i))
	}
	hot := b.Lock("hot")
	var inner trace.LockID
	if o.Nested {
		inner = b.Lock("inner")
	}
	shared := b.Var("shared")
	private := make([]trace.VarID, o.Threads)
	for i := 1; i < o.Threads; i++ {
		private[i] = b.Var("p" + suffix(i))
	}
	for i := 1; i < o.Threads; i++ {
		b.Fork(threads[0], threads[i])
	}
	for r := 0; r < o.Rounds; r++ {
		w := 1 + r%(o.Threads-1)
		t := threads[w]
		b.Begin(t)
		b.Acquire(t, hot)
		if o.Nested && r%4 == 1 {
			b.Acquire(t, inner)
			b.Read(t, shared)
			b.Release(t, inner)
		} else {
			b.Read(t, shared)
		}
		b.Write(t, shared)
		b.Release(t, hot)
		b.Write(t, private[w])
		b.End(t)
	}
	for i := 1; i < o.Threads; i++ {
		b.Join(threads[0], threads[i])
	}
	return mustValid(b.Build(), "lock-convoy")
}

// QuotaThrashOpts controls QuotaThrashTrace.
type QuotaThrashOpts struct {
	// Threads is the total thread count including the forking main thread
	// (≥2).
	Threads int
	// Bursts is the number of per-thread transaction bursts.
	Bursts int
	// TxnsPerBurst is how many tiny one-write transactions each burst
	// emits (default 3). Every write touches a fresh variable.
	TxnsPerBurst int
}

// QuotaThrashTrace builds the adversarial metadata-churn shape: bursts of
// minimal transactions, each writing a variable never touched again. The
// variable space grows linearly with the trace.
func QuotaThrashTrace(o QuotaThrashOpts) *trace.Trace {
	if o.Threads < 2 {
		o.Threads = 2
	}
	if o.Bursts < 1 {
		o.Bursts = 1
	}
	if o.TxnsPerBurst < 1 {
		o.TxnsPerBurst = 3
	}
	b := trace.NewBuilder()
	threads := make([]trace.ThreadID, o.Threads)
	for i := range threads {
		threads[i] = b.Thread("t" + suffix(i))
	}
	for i := 1; i < o.Threads; i++ {
		b.Fork(threads[0], threads[i])
	}
	fresh := 0
	for burst := 0; burst < o.Bursts; burst++ {
		t := threads[1+burst%(o.Threads-1)]
		for i := 0; i < o.TxnsPerBurst; i++ {
			b.Begin(t)
			b.Write(t, b.Var("f"+suffix(fresh)))
			fresh++
			b.End(t)
		}
	}
	for i := 1; i < o.Threads; i++ {
		b.Join(threads[0], threads[i])
	}
	return mustValid(b.Build(), "quota-thrash")
}

// WideTrace builds the hostile-width shape: threads distinct threads, run
// one after another, each executing begin; r(x); w(x); end on one of vars
// shared variables. The trace is serial, hence serializable, but no thread
// appears twice, so every thread clock is fresh when its read absorbs a
// W_x that already carries most of the width — the join that churns a
// one-entry tree. The seed permutes the thread ids and picks the
// variables. threads ≥ 2 and vars ≥ 1 after clamping.
func WideTrace(threads, vars int, seed int64) *trace.Trace {
	return wideTrace(threads, vars, seed, false)
}

// WideViolatingTrace is WideTrace with the last two threads' transactions
// interleaved on the same variable (begin, begin, r, r, w, w, end, end):
// each read precedes the other's write, so the two transactions form a
// conflict cycle at the very end of a wide trace.
func WideViolatingTrace(threads, vars int, seed int64) *trace.Trace {
	return wideTrace(threads, vars, seed, true)
}

func wideTrace(threads, vars int, seed int64, interleaveLast bool) *trace.Trace {
	if threads < 2 {
		threads = 2
	}
	if vars < 1 {
		vars = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	ids := make([]trace.ThreadID, threads)
	for i := range ids {
		ids[i] = b.Thread("t" + suffix(i))
	}
	xs := make([]trace.VarID, vars)
	for i := range xs {
		xs[i] = b.Var("x" + suffix(i))
	}
	order := rng.Perm(threads)
	serial := len(order)
	if interleaveLast {
		serial -= 2
	}
	for _, i := range order[:serial] {
		t, x := ids[i], xs[rng.Intn(vars)]
		b.Begin(t)
		b.Read(t, x)
		b.Write(t, x)
		b.End(t)
	}
	if interleaveLast {
		u, v, x := ids[order[serial]], ids[order[serial+1]], xs[rng.Intn(vars)]
		b.Begin(u)
		b.Begin(v)
		b.Read(u, x)
		b.Read(v, x)
		b.Write(u, x)
		b.Write(v, x)
		b.End(u)
		b.End(v)
	}
	return mustValid(b.Build(), "wide")
}

// concurrentReaderRounds is how many rounds ConcurrentReadersTrace runs.
const concurrentReaderRounds = 4

// ConcurrentReadersTrace builds rounds of simultaneously open readers. In
// each round every reader begins; each reads the round's hot variable
// and, half of them, one more of vars shared variables; then all end, in
// seeded orders. A writer transaction then writes every variable, and one
// reader re-reads the hot variable outside any transaction. No reader's
// stamp reaches another reader within a round, so a variable's read state
// holds one entry per open reader of it; the writer carries all of them
// to the next round's readers, which absorb them. The trace is
// serializable. readers ≥ 1 and vars ≥ 1 after clamping.
func ConcurrentReadersTrace(readers, vars int, seed int64) *trace.Trace {
	return concurrentReadersTrace(readers, vars, seed, false)
}

// ConcurrentReadersViolatingTrace is ConcurrentReadersTrace whose last
// round closes a cycle while the readers are still open: the writer
// begins, writes a flag variable that one reader of the hot variable then
// reads, and writes the hot variable. That reader's transaction both
// follows the writer's (through the flag) and precedes it (through the
// hot variable).
func ConcurrentReadersViolatingTrace(readers, vars int, seed int64) *trace.Trace {
	return concurrentReadersTrace(readers, vars, seed, true)
}

func concurrentReadersTrace(readers, vars int, seed int64, violating bool) *trace.Trace {
	if readers < 1 {
		readers = 1
	}
	if vars < 1 {
		vars = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	w := b.Thread("w")
	rs := make([]trace.ThreadID, readers)
	for i := range rs {
		rs[i] = b.Thread("r" + suffix(i))
	}
	xs := make([]trace.VarID, vars)
	for i := range xs {
		xs[i] = b.Var("x" + suffix(i))
	}
	flag := b.Var("flag")
	for _, r := range rs {
		b.Fork(w, r)
	}
	for round := 0; round < concurrentReaderRounds; round++ {
		hot := xs[round%vars]
		for _, i := range rng.Perm(readers) {
			b.Begin(rs[i])
		}
		for _, i := range rng.Perm(readers) {
			b.Read(rs[i], hot)
			if rng.Intn(2) == 0 {
				b.Read(rs[i], xs[rng.Intn(vars)])
			}
		}
		writerOpen := false
		if violating && round == concurrentReaderRounds-1 {
			b.Begin(w)
			b.Write(w, flag)
			b.Read(rs[rng.Intn(readers)], flag)
			b.Write(w, hot)
			writerOpen = true
		}
		for _, i := range rng.Perm(readers) {
			b.End(rs[i])
		}
		if !writerOpen {
			b.Begin(w)
		}
		for _, x := range xs {
			b.Write(w, x)
		}
		b.End(w)
		b.Read(rs[rng.Intn(readers)], hot)
	}
	for _, r := range rs {
		b.Join(w, r)
	}
	return mustValid(b.Build(), "concurrent-readers")
}

func mustValid(tr *trace.Trace, shape string) *trace.Trace {
	if err := trace.ValidateStrict(tr); err != nil {
		panic("testutil: " + shape + " trace malformed: " + err.Error())
	}
	return tr
}
