package core

import (
	"slices"

	"aerodrome/internal/vc"
)

// tidEntry is one (thread, time) pair of a tidList.
type tidEntry struct {
	tid int32
	t   vc.Time
}

// tidList is a short thread-keyed list of times: the per-variable
// representation of ȒR_x's exceptions to R_x and of the update-set marks
// of the Algorithm 3 engine (see optVar). Both hold an entry only for a
// thread whose state the variable's clocks do not already imply, which on
// chain, sharded and wide traces is one or two threads. So a list that
// never held two entries keeps its entry inline and does not allocate,
// and a longer one sits behind one pointer: a list takes 40 bytes of its
// variable's state however long it grows. Past vc.PromoteThreshold
// entries the list builds a dense tid→position index and lookups become
// O(1); the index is kept from then on, like a promoted vc.Sparse.
//
// The zero value is empty and ready for use. Every mutation bumps ver.
type tidList struct {
	one  [1]tidEntry // the entries while more is nil
	n    int32
	ver  uint64
	more *tidMore // every entry, once the list has held two
}

// tidMore holds the entries of a list that has held two or more.
type tidMore struct {
	all []tidEntry
	idx []int32 // non-nil once promoted: idx[tid] = position+1, 0 = absent
}

func (l *tidList) len() int { return int(l.n) }

// entries returns the entries in position order. The slice aliases the
// list: deleteAt moves the last entry into the deleted position.
func (l *tidList) entries() []tidEntry {
	if l.more != nil {
		return l.more.all
	}
	return l.one[:l.n]
}

// indexed reports whether the list has built its thread index.
func (l *tidList) indexed() bool { return l.more != nil && l.more.idx != nil }

// entry returns the entry at position i < len().
func (l *tidList) entry(i int) *tidEntry { return &l.entries()[i] }

// find returns the position of tid's entry, or -1.
func (l *tidList) find(tid int) int {
	if l.indexed() {
		if idx := l.more.idx; tid < len(idx) {
			return int(idx[tid]) - 1
		}
		return -1
	}
	for i, e := range l.entries() {
		if int(e.tid) == tid {
			return i
		}
	}
	return -1
}

// setAt overwrites the time of the entry at position i.
func (l *tidList) setAt(i int, t vc.Time) {
	l.entry(i).t = t
	l.ver++
}

// add appends an entry for tid, which must not be listed, and reports
// whether the list promoted itself to the indexed form.
func (l *tidList) add(tid int, t vc.Time) (promoted bool) {
	e := tidEntry{tid: int32(tid), t: t}
	l.ver++
	l.n++
	switch {
	case l.more != nil:
		l.more.all = append(l.more.all, e)
	case l.n == 1:
		l.one[0] = e
		return false
	default:
		l.more = &tidMore{all: append(make([]tidEntry, 0, 2), l.one[0], e)}
	}
	if l.more.idx != nil {
		l.index(tid, int(l.n)-1)
		return false
	}
	if int(l.n) <= vc.PromoteThreshold {
		return false
	}
	for i, e := range l.more.all {
		l.index(int(e.tid), i)
	}
	return true
}

// index records that tid sits at position i.
func (l *tidList) index(tid, i int) {
	m := l.more
	if tid >= len(m.idx) {
		n := 2 * len(m.idx)
		if n <= tid {
			n = tid + 1
		}
		m.idx = append(m.idx, make([]int32, n-len(m.idx))...)
	}
	m.idx[tid] = int32(i + 1)
}

// deleteAt removes the entry at position i, moving the last entry into
// its place.
func (l *tidList) deleteAt(i int) {
	es := l.entries()
	last := len(es) - 1
	var idx []int32
	if l.more != nil {
		idx = l.more.idx
	}
	if idx != nil {
		idx[es[i].tid] = 0
	}
	if i != last {
		es[i] = es[last]
		if idx != nil {
			idx[es[i].tid] = int32(i + 1)
		}
	}
	if l.more != nil {
		l.more.all = es[:last]
	}
	l.n--
	l.ver++
}

// prune deletes the entries dead reports, ahead of an insertion: every
// time while the list is searched linearly anyway, and once it is indexed
// only when its backing array is full, then leaving room for as many
// insertions as there are live entries. Either way pruning costs
// amortized O(1) per insertion.
func (l *tidList) prune(dead func(tidEntry) bool) {
	if l.indexed() && len(l.more.all) < cap(l.more.all) {
		return
	}
	for i := 0; i < l.len(); {
		if dead(*l.entry(i)) {
			l.deleteAt(i)
			continue
		}
		i++
	}
	if l.indexed() {
		l.more.all = slices.Grow(l.more.all, len(l.more.all))
	}
}
