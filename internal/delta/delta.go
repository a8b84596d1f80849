// Package delta implements the ELSI update processor's side list
// (Section IV-B2): newly inserted points and deletions of existing
// points are kept out of the learned structure and consulted at query
// time; an AVL tree keyed by point ID keeps maintenance logarithmic,
// as the paper suggests ("a binary tree on the IDs of the updated
// points can be employed to reduce the query time").
package delta

import "elsi/internal/geo"

// Op is the kind of pending update.
type Op int8

const (
	// Inserted marks a point added after the last (re)build.
	Inserted Op = iota
	// Deleted marks an indexed point removed after the last (re)build.
	Deleted
)

// Record is one pending update.
type Record struct {
	ID    int64
	Point geo.Point
	Op    Op
}

type node struct {
	rec         Record
	left, right *node
	height      int
}

// List is the pending-update store. The zero value is ready to use.
// Alongside the ID-keyed AVL tree, point-keyed counters give O(1)
// membership checks for the point-query path.
type List struct {
	root *node
	size int
	dels int

	insCount map[geo.Point]int
	delCount map[geo.Point]int
	insIDs   map[geo.Point][]int64
}

// Len returns the number of pending updates.
//
//elsi:noalloc
func (l *List) Len() int { return l.size }

// Deletions returns the number of pending deletion records. Query
// paths that fetch candidates from the base index and filter deletions
// afterwards use it to widen the fetch so the filter cannot eat into
// the requested answer size.
//
//elsi:noalloc
func (l *List) Deletions() int { return l.dels }

// Insert records the insertion of point p with identifier id. If id is
// already pending as a deletion of the same point, the records cancel
// out. A pending deletion of a *different* point is replaced instead:
// cancelling it would silently drop p and resurrect the deleted point.
func (l *List) Insert(id int64, p geo.Point) {
	if n := l.find(id); n != nil && n.rec.Op == Deleted && n.rec.Point == p {
		l.remove(id)
		return
	}
	l.put(Record{ID: id, Point: p, Op: Inserted})
}

// Delete records the deletion of indexed point p with identifier id.
// Deleting a pending insertion of the same point simply drops it; a
// pending insertion of a different point is replaced by the deletion
// record (symmetric with Insert).
func (l *List) Delete(id int64, p geo.Point) {
	if n := l.find(id); n != nil && n.rec.Op == Inserted && n.rec.Point == p {
		l.remove(id)
		return
	}
	l.put(Record{ID: id, Point: p, Op: Deleted})
}

// Get returns the pending record for id, if any.
func (l *List) Get(id int64) (Record, bool) {
	if n := l.find(id); n != nil {
		return n.rec, true
	}
	return Record{}, false
}

// ForEach visits all pending records in ID order.
func (l *List) ForEach(fn func(Record)) {
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		fn(n.rec)
		walk(n.right)
	}
	walk(l.root)
}

// InsertedWithin appends to out the pending insertions inside win.
//
//elsi:noalloc
func (l *List) InsertedWithin(win geo.Rect, out []geo.Point) []geo.Point {
	return appendInsertedWithin(l.root, true, win, nil, out)
}

// AppendInserted appends every pending insertion's point to out, in ID
// order. It is the closure-free form of ForEach-with-filter for the
// query hot paths: the recursion carries the output slice instead of
// capturing it.
//
//elsi:noalloc
func (l *List) AppendInserted(out []geo.Point) []geo.Point {
	return appendInsertedWithin(l.root, false, geo.Rect{}, nil, out)
}

// InsertedNotDeletedIn appends the pending insertions that do not have
// a pending deletion in dels (the newer overlay layered above this
// frozen snapshot). A nil dels filters nothing.
//
//elsi:noalloc
func (l *List) InsertedNotDeletedIn(dels *List, out []geo.Point) []geo.Point {
	return appendInsertedWithin(l.root, false, geo.Rect{}, dels, out)
}

// InsertedWithinNotDeletedIn combines the window filter with the
// overlay-deletion filter.
//
//elsi:noalloc
func (l *List) InsertedWithinNotDeletedIn(win geo.Rect, dels *List, out []geo.Point) []geo.Point {
	return appendInsertedWithin(l.root, true, win, dels, out)
}

// appendInsertedWithin is the shared in-order recursion behind the
// Inserted* appenders: windowed reports whether win filters (a
// degenerate window is still a window, so a sentinel value cannot
// stand in for "unfiltered").
//
//elsi:noalloc
func appendInsertedWithin(n *node, windowed bool, win geo.Rect, dels *List, out []geo.Point) []geo.Point {
	if n == nil {
		return out
	}
	out = appendInsertedWithin(n.left, windowed, win, dels, out)
	if n.rec.Op == Inserted &&
		(!windowed || win.Contains(n.rec.Point)) &&
		(dels == nil || !dels.IsDeleted(n.rec.Point)) {
		out = append(out, n.rec.Point)
	}
	return appendInsertedWithin(n.right, windowed, win, dels, out)
}

// IsDeleted reports whether a point equal to p has a pending deletion.
//
//elsi:noalloc
func (l *List) IsDeleted(p geo.Point) bool {
	return l.delCount[p] > 0
}

// HasInserted reports whether a point equal to p has a pending
// insertion (used by point queries over the delta list).
//
//elsi:noalloc
func (l *List) HasInserted(p geo.Point) bool {
	return l.insCount[p] > 0
}

// Clear drops all pending updates (called after a rebuild folds them
// into the base index).
func (l *List) Clear() {
	l.root = nil
	l.size = 0
	l.dels = 0
	l.insCount = nil
	l.delCount = nil
	l.insIDs = nil
}

// RemoveInsertedPoint drops one pending insertion of a point equal to
// p, reporting whether one existed. Deleting a point that is itself a
// pending insertion must cancel that insertion rather than add a
// deletion record — otherwise the stale insertion resurrects the
// point in query results.
func (l *List) RemoveInsertedPoint(p geo.Point) bool {
	ids := l.insIDs[p]
	if len(ids) == 0 {
		return false
	}
	l.remove(ids[len(ids)-1])
	return true
}

// Freeze returns the current pending updates as a frozen snapshot and
// resets the receiver to empty in O(1). The update processor calls it
// at the start of a background rebuild: the returned list is the
// immutable view an in-flight rebuild (and queries racing with it)
// see, while the receiver becomes the fresh overlay collecting the
// updates that arrive during the rebuild. The snapshot must not be
// mutated afterwards.
func (l *List) Freeze() *List {
	snap := &List{
		root:     l.root,
		size:     l.size,
		dels:     l.dels,
		insCount: l.insCount,
		delCount: l.delCount,
		insIDs:   l.insIDs,
	}
	*l = List{}
	return snap
}

// Adopt stores rec as-is, without the cancellation logic of Insert and
// Delete. It is the primitive for replaying a frozen snapshot's
// records back into a live list when a background rebuild fails and
// its frozen view must be restored.
func (l *List) Adopt(rec Record) {
	l.put(rec)
}

// Records returns all pending records in ID order.
func (l *List) Records() []Record {
	out := make([]Record, 0, l.size)
	l.ForEach(func(r Record) { out = append(out, r) })
	return out
}

// --- AVL internals -----------------------------------------------------

func (l *List) find(id int64) *node {
	n := l.root
	for n != nil {
		switch {
		case id < n.rec.ID:
			n = n.left
		case id > n.rec.ID:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

func (l *List) put(rec Record) {
	if old := l.find(rec.ID); old != nil {
		l.countAdjust(old.rec, -1)
	}
	var added bool
	l.root, added = insert(l.root, rec)
	if added {
		l.size++
	}
	l.countAdjust(rec, +1)
}

func (l *List) remove(id int64) {
	old := l.find(id)
	if old == nil {
		return
	}
	// copy the record before the tree mutation: deleting a node with
	// two children overwrites it in place with its in-order successor
	// (del's n.rec = succ.rec), so reading old.rec afterwards would
	// adjust the successor's counters instead of the removed record's —
	// silently dropping a *different* point's pending state.
	rec := old.rec
	var removed bool
	l.root, removed = del(l.root, id)
	if removed {
		l.size--
		l.countAdjust(rec, -1)
	}
}

// countAdjust maintains the point-keyed membership counters and the
// inserted-point id lists.
func (l *List) countAdjust(rec Record, delta int) {
	var m map[geo.Point]int
	if rec.Op == Inserted {
		if l.insCount == nil {
			l.insCount = map[geo.Point]int{}
			l.insIDs = map[geo.Point][]int64{}
		}
		m = l.insCount
		if delta > 0 {
			l.insIDs[rec.Point] = append(l.insIDs[rec.Point], rec.ID)
		} else {
			ids := l.insIDs[rec.Point]
			for i, id := range ids {
				if id == rec.ID {
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					break
				}
			}
			if len(ids) == 0 {
				delete(l.insIDs, rec.Point)
			} else {
				l.insIDs[rec.Point] = ids
			}
		}
	} else {
		if l.delCount == nil {
			l.delCount = map[geo.Point]int{}
		}
		m = l.delCount
		l.dels += delta
	}
	m[rec.Point] += delta
	if m[rec.Point] <= 0 {
		delete(m, rec.Point)
	}
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *node) *node {
	n.height = 1 + max(height(n.left), height(n.right))
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max(height(n.left), height(n.right))
	l.height = 1 + max(height(l.left), height(l.right))
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max(height(n.left), height(n.right))
	r.height = 1 + max(height(r.left), height(r.right))
	return r
}

func insert(n *node, rec Record) (*node, bool) {
	if n == nil {
		return &node{rec: rec, height: 1}, true
	}
	var added bool
	switch {
	case rec.ID < n.rec.ID:
		n.left, added = insert(n.left, rec)
	case rec.ID > n.rec.ID:
		n.right, added = insert(n.right, rec)
	default:
		n.rec = rec // overwrite in place
		return n, false
	}
	return fix(n), added
}

func del(n *node, id int64) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch {
	case id < n.rec.ID:
		n.left, removed = del(n.left, id)
	case id > n.rec.ID:
		n.right, removed = del(n.right, id)
	default:
		removed = true
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		// replace with in-order successor
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.rec = succ.rec
		n.right, _ = del(n.right, succ.rec.ID)
	}
	return fix(n), removed
}
