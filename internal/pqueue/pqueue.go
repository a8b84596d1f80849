// Package pqueue provides the two priority queues used by
// branch-and-bound kNN search: a min-heap of index nodes ordered by
// MINDIST and a bounded max-heap keeping the k best candidate points.
package pqueue

import (
	"elsi/internal/geo"
)

// Item is an opaque payload with a priority distance.
type Item struct {
	Value interface{}
	Dist  float64
}

// Min is a min-heap of Items by Dist. The zero value is ready to use.
type Min struct {
	items []Item
}

// Len returns the number of queued items.
//
//elsi:noalloc
func (q *Min) Len() int { return len(q.items) }

// Reset empties the queue, keeping its backing storage for reuse so a
// pooled queue serves repeated kNN searches without reallocating.
//
//elsi:noalloc
func (q *Min) Reset() { q.items = q.items[:0] }

// Push adds an item. Callers must pass pointer-shaped values (the
// traversal pushes *node) so the interface conversion does not heap-
// allocate.
//
//elsi:noalloc
func (q *Min) Push(v interface{}, d float64) {
	q.items = append(q.items, Item{Value: v, Dist: d})
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].Dist <= q.items[i].Dist {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

// Pop removes and returns the item with the smallest Dist.
//
//elsi:noalloc
func (q *Min) Pop() Item {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	n := len(q.items)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].Dist < q.items[smallest].Dist {
			smallest = l
		}
		if r < n && q.items[r].Dist < q.items[smallest].Dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[smallest], q.items[i] = q.items[i], q.items[smallest]
		i = smallest
	}
	return top
}

// KBest keeps the k nearest points seen so far in a bounded max-heap.
type KBest struct {
	k    int
	pts  []geo.Point
	dist []float64
}

// Reset empties the heap and sets a new capacity, keeping the backing
// storage for reuse.
//
//elsi:noalloc
func (b *KBest) Reset(k int) {
	b.k = k
	b.pts = b.pts[:0]
	b.dist = b.dist[:0]
}

// Full reports whether k candidates are held.
//
//elsi:noalloc
func (b *KBest) Full() bool { return len(b.pts) >= b.k }

// Worst returns the distance of the current k-th best candidate, or
// +Inf semantics via 0 when empty (callers must check Full first).
//
//elsi:noalloc
func (b *KBest) Worst() float64 {
	if len(b.dist) == 0 {
		return 0
	}
	return b.dist[0]
}

// Offer considers point p at squared distance d.
//
//elsi:noalloc
func (b *KBest) Offer(p geo.Point, d float64) {
	if len(b.pts) < b.k {
		b.pts = append(b.pts, p)
		b.dist = append(b.dist, d)
		b.up(len(b.pts) - 1)
		return
	}
	if d >= b.dist[0] {
		return
	}
	b.pts[0], b.dist[0] = p, d
	b.down(0)
}

//elsi:noalloc
func (b *KBest) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.dist[parent] >= b.dist[i] {
			return
		}
		b.dist[parent], b.dist[i] = b.dist[i], b.dist[parent]
		b.pts[parent], b.pts[i] = b.pts[i], b.pts[parent]
		i = parent
	}
}

//elsi:noalloc
func (b *KBest) down(i int) { b.downN(i, len(b.dist)) }

// downN sifts index i down within the heap prefix [0, n) — the bounded
// form heapsort needs to restore the shrinking heap.
//
//elsi:noalloc
func (b *KBest) downN(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && b.dist[l] > b.dist[largest] {
			largest = l
		}
		if r < n && b.dist[r] > b.dist[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		b.dist[largest], b.dist[i] = b.dist[i], b.dist[largest]
		b.pts[largest], b.pts[i] = b.pts[i], b.pts[largest]
		i = largest
	}
}

// MergeAppend offers every candidate held by o into b under b's
// k-bound. o is read, not consumed — its heap order is untouched, so a
// scatter-gather path can fill one scratch heap per shard in parallel
// and fold them into a global k-best serially, reusing every heap
// across queries. Merging is order-insensitive: the result holds the k
// smallest distances of the union, exactly as if every candidate had
// been Offered directly.
//
//elsi:noalloc
func (b *KBest) MergeAppend(o *KBest) {
	for i := range o.pts {
		b.Offer(o.pts[i], o.dist[i])
	}
}

// AppendPoints appends the candidates to out sorted by ascending
// distance and returns the extended slice. It heapsorts the heap's own
// parallel columns in place (the max-heap invariant already holds, so
// no sort.Interface indirection and no scratch allocation), consuming
// the heap order: Offer must not be called afterwards without a Reset.
//
//elsi:noalloc
func (b *KBest) AppendPoints(out []geo.Point) []geo.Point {
	for end := len(b.dist) - 1; end > 0; end-- {
		b.dist[0], b.dist[end] = b.dist[end], b.dist[0]
		b.pts[0], b.pts[end] = b.pts[end], b.pts[0]
		b.downN(0, end)
	}
	return append(out, b.pts...)
}
