package main

import (
	"fmt"

	"elsi/internal/geo"
)

// check compares one sampled window or kNN answer with brute force over
// the generated data.
//
// On a read-only stream the answer must equal brute force exactly. On a
// stream with writes the stored set at the instant of the query is the
// initial data (never deleted: clients delete only their own inserts)
// plus an unknown set of inserted points, so the check is the strongest
// one that holds for every such set: a window answer contains every
// initial point inside the window and nothing outside it; a kNN answer
// is k points in ascending distance, contains every initial point
// strictly closer than its last, and its last is no farther than brute
// force's k-th over the initial data.
func (c *corpus) check(a audit) error {
	if a.O.Kind == opWindow {
		return c.checkWindow(a.O.Win, a.Got)
	}
	return c.checkKNN(a.O.Pt, a.O.K, a.Got)
}

func (c *corpus) checkWindow(win geo.Rect, got []geo.Point) error {
	var want []geo.Point
	for _, p := range c.Pts {
		if win.Contains(p) {
			want = append(want, p)
		}
	}
	seen := make(map[geo.Point]int, len(got))
	for _, p := range got {
		if !win.Contains(p) {
			return fmt.Errorf("window %v: answer holds %v outside it", win, p)
		}
		seen[p]++
	}
	for _, p := range want {
		if seen[p] == 0 {
			return fmt.Errorf("window %v: stored point %v missing from the answer", win, p)
		}
	}
	if c.W.readOnly() && len(got) != len(want) {
		return fmt.Errorf("window %v: %d points, brute force finds %d", win, len(got), len(want))
	}
	return nil
}

func (c *corpus) checkKNN(q geo.Point, k int, got []geo.Point) error {
	if want := min(k, len(c.Pts)); len(got) < want || len(got) > k {
		return fmt.Errorf("kNN %v k=%d: %d points returned", q, k, len(got))
	}
	for i := 1; i < len(got); i++ {
		if q.Dist2(got[i]) < q.Dist2(got[i-1]) {
			return fmt.Errorf("kNN %v k=%d: answer not in ascending distance at %d", q, k, i)
		}
	}
	last := q.Dist2(got[len(got)-1])
	in := make(map[geo.Point]bool, len(got))
	for _, p := range got {
		in[p] = true
	}
	closer := 0
	for _, p := range c.Pts {
		if q.Dist2(p) < last {
			closer++
			if !in[p] {
				return fmt.Errorf("kNN %v k=%d: stored point %v is closer than the answer's last and missing", q, k, p)
			}
		}
	}
	// k initial points strictly closer than the last neighbour would put
	// brute force's k-th nearer than the answer's
	if closer >= k {
		return fmt.Errorf("kNN %v k=%d: %d stored points are closer than the last neighbour", q, k, closer)
	}
	if c.W.readOnly() {
		for _, p := range got {
			if _, ok := c.stored[p]; !ok {
				return fmt.Errorf("kNN %v k=%d: answer holds %v, which was never stored", q, k, p)
			}
		}
	}
	return nil
}
