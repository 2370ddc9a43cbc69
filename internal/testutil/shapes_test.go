package testutil

// Tests for the deterministic scenario-zoo shape builders: strict
// validity (the builders panic internally otherwise), determinism, byte-
// format round-tripping at fuzz-seed sizes, and the structural property
// each shape exists for.

import (
	"reflect"
	"testing"

	"aerodrome/internal/trace"
)

func shapeBuilders() map[string]func() *trace.Trace {
	return map[string]func() *trace.Trace{
		"producer-consumer": func() *trace.Trace {
			return ProducerConsumerTrace(ProducerConsumerOpts{Producers: 2, Consumers: 2, Rounds: 40, Slots: 4})
		},
		"barrier-phases": func() *trace.Trace {
			return BarrierPhasesTrace(BarrierOpts{Threads: 6, Phases: 8, OpsPerTxn: 2})
		},
		"lock-convoy": func() *trace.Trace {
			return LockConvoyTrace(LockConvoyOpts{Threads: 6, Rounds: 40, Nested: true})
		},
		"quota-thrash": func() *trace.Trace {
			return QuotaThrashTrace(QuotaThrashOpts{Threads: 5, Bursts: 20, TxnsPerBurst: 3})
		},
	}
}

func TestShapeBuildersDeterministicAndEncodable(t *testing.T) {
	for name, build := range shapeBuilders() {
		a, b := build(), build()
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Fatalf("%s: builder is not deterministic", name)
		}
		// Fuzz-seed sizes must round-trip the byte-program format exactly.
		enc := EncodeTrace(a)
		if enc == nil {
			t.Fatalf("%s: does not fit the byte format at seed size", name)
		}
		dec := TraceFromBytes(enc)
		if len(dec.Events) != len(a.Events) {
			t.Fatalf("%s: byte round trip changed length: %d -> %d",
				name, len(a.Events), len(dec.Events))
		}
		for i := range a.Events {
			if a.Events[i].Kind != dec.Events[i].Kind || a.Events[i].Thread != dec.Events[i].Thread {
				t.Fatalf("%s: byte round trip changed event %d: %v -> %v",
					name, i, a.Events[i], dec.Events[i])
			}
		}
	}
}

func TestShapeBuildersDegenerateOpts(t *testing.T) {
	// Zero-valued opts must still produce small valid traces (the builders
	// clamp internally and panic on invalidity).
	ProducerConsumerTrace(ProducerConsumerOpts{})
	BarrierPhasesTrace(BarrierOpts{})
	LockConvoyTrace(LockConvoyOpts{})
	QuotaThrashTrace(QuotaThrashOpts{})
}

func TestQuotaThrashFreshVars(t *testing.T) {
	tr := QuotaThrashTrace(QuotaThrashOpts{Threads: 4, Bursts: 10, TxnsPerBurst: 3})
	writes := map[int32]int{}
	for _, e := range tr.Events {
		if e.Kind == trace.Write {
			writes[e.Target]++
		}
	}
	if len(writes) != 30 {
		t.Fatalf("expected 30 distinct written vars, got %d", len(writes))
	}
	for v, n := range writes {
		if n != 1 {
			t.Fatalf("var %d written %d times; thrash vars must be fresh", v, n)
		}
	}
}

func TestWideTraceShape(t *testing.T) {
	const threads, vars = 40, 3
	a, b := WideTrace(threads, vars, 5), WideTrace(threads, vars, 5)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("wide: builder is not deterministic for a fixed seed")
	}
	if reflect.DeepEqual(a.Events, WideTrace(threads, vars, 6).Events) {
		t.Fatal("wide: seed does not change the trace")
	}
	for _, tr := range []*trace.Trace{a, WideViolatingTrace(threads, vars, 5)} {
		if len(tr.Events) != 4*threads {
			t.Fatalf("wide: %d events, want %d", len(tr.Events), 4*threads)
		}
		perThread := map[trace.ThreadID][]trace.OpKind{}
		for _, e := range tr.Events {
			perThread[e.Thread] = append(perThread[e.Thread], e.Kind)
		}
		want := []trace.OpKind{trace.Begin, trace.Read, trace.Write, trace.End}
		if len(perThread) != threads {
			t.Fatalf("wide: %d distinct threads, want %d", len(perThread), threads)
		}
		for th, kinds := range perThread {
			if !reflect.DeepEqual(kinds, want) {
				t.Fatalf("wide: thread %d runs %v, want begin; r; w; end", th, kinds)
			}
		}
	}
	// Only the violating variant interleaves, and only its last two
	// transactions.
	v := WideViolatingTrace(threads, vars, 5)
	if !reflect.DeepEqual(a.Events[:len(a.Events)-8], v.Events[:len(v.Events)-8]) {
		t.Fatal("wide-violating: the serial prefix differs from WideTrace's")
	}
	u, w := v.Events[len(v.Events)-8], v.Events[len(v.Events)-7]
	if u.Kind != trace.Begin || w.Kind != trace.Begin || u.Thread == w.Thread {
		t.Fatalf("wide-violating: last two transactions are not interleaved: %v, %v", u, w)
	}
}

func TestConcurrentReadersTraceShape(t *testing.T) {
	const readers, vars = 20, 3
	a := ConcurrentReadersTrace(readers, vars, 5)
	if !reflect.DeepEqual(a.Events, ConcurrentReadersTrace(readers, vars, 5).Events) {
		t.Fatal("concurrent-readers: builder is not deterministic for a fixed seed")
	}
	if reflect.DeepEqual(a.Events, ConcurrentReadersTrace(readers, vars, 6).Events) {
		t.Fatal("concurrent-readers: seed does not change the trace")
	}
	// Every round must hold all readers open at once: the last reader
	// begin of a round precedes its first reader end.
	open, maxOpen := 0, 0
	for _, e := range a.Events {
		if e.Thread == 0 {
			continue // the writer
		}
		switch e.Kind {
		case trace.Begin:
			open++
			if open > maxOpen {
				maxOpen = open
			}
		case trace.End:
			open--
		}
	}
	if maxOpen != readers {
		t.Fatalf("concurrent-readers: at most %d readers open at once, want %d", maxOpen, readers)
	}
	v := ConcurrentReadersViolatingTrace(readers, vars, 5)
	if len(v.Events) != len(a.Events)+3 {
		t.Fatalf("violating variant has %d events, want %d", len(v.Events), len(a.Events)+3)
	}
}
