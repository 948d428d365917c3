// L-shot primitive: two rectangles sharing one dose. An L-shaped
// aperture writes the union of two overlapping (or flush-adjacent)
// rectangles in a single flash. By linearity of the proximity
// convolution over indicator functions,
//
//	1_A + 1_B − 1_{A∩B} = 1_{A∪B},
//
// so the dose field of the single L flash equals the sum of the two
// rectangle doses minus the dose of their intersection. The evaluator
// represents an L-shot as a *pair* of entries in the shot list bound
// together by a partner index; the pair contributes the corrected dose
// and prices as one flash. Pairing keeps every existing mutator
// incremental: moving one arm of an L re-scans only the changed-edge
// strips of the arm plus the changed overlap term.
//
// When the two rectangles are flush (their closed intersection has
// zero area) there is no overlap term at all — the pair's dose is
// exactly the sum of the arms, which is why the matching pass upstream
// prefers flush candidates.
package cover

import (
	"fmt"

	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// pairOverlap returns the positive-area intersection of two paired
// rectangles, or the zero Rect when they only touch or are disjoint.
// The zero Rect is the package-wide "no overlap term" sentinel: a zero
// overlap contributes no dose (its edge profiles cancel exactly), so
// paired bookkeeping skips it everywhere.
func pairOverlap(a, b geom.Rect) geom.Rect {
	o := a.Intersect(b)
	if o.X1 <= o.X0 || o.Y1 <= o.Y0 {
		return geom.Rect{}
	}
	return o
}

// UnionIsLShot reports whether the union of a and b is exactly an
// L-shape — the compatibility predicate of the matching pass. The
// union is an L iff it is connected with positive-length contact,
// neither rectangle contains the other, and exactly one corner of the
// joint bounding box is uncovered (zero uncovered corners is a plain
// rectangle; two is a T, Z or staircase; four is disjoint). Closed
// containment is used throughout so flush-adjacent pairs qualify.
func UnionIsLShot(a, b geom.Rect) bool {
	if a.Empty() || b.Empty() {
		return false
	}
	// connected: the closed intersection must be nonempty on both axes
	// (a shared edge segment or area overlap; a corner-point touch is
	// rejected below by the corner count)
	if a.X0 > b.X1 || b.X0 > a.X1 || a.Y0 > b.Y1 || b.Y0 > a.Y1 {
		return false
	}
	if a.ContainsRect(b) || b.ContainsRect(a) {
		return false
	}
	bb := a.Union(b)
	uncovered := 0
	for _, c := range [4]geom.Point{
		geom.Pt(bb.X0, bb.Y0), geom.Pt(bb.X1, bb.Y0),
		geom.Pt(bb.X0, bb.Y1), geom.Pt(bb.X1, bb.Y1),
	} {
		if !a.Contains(c) && !b.Contains(c) {
			uncovered++
		}
	}
	return uncovered == 1
}

// Partner returns the index of the shot paired with shot i, or −1 when
// shot i is an unpaired rectangle.
func (e *Eval) Partner(i int) int { return e.partner[i] }

// LegalMove reports whether replacing shot i by nr keeps the
// configuration writable: the minimum shot size holds, and when shot i
// is one arm of an L-shot the moved arm still forms an L with its
// partner (a single L-aperture flash cannot write a T, staircase or
// disconnected pair). Unpaired shots only check the size constraint.
// Every ±Δp edge loop judges its moves with this one rule.
func (e *Eval) LegalMove(i int, nr geom.Rect) bool {
	if !e.P.MinSizeOK(nr) {
		return false
	}
	j := e.partner[i]
	return j < 0 || UnionIsLShot(nr, e.Shots[j])
}

// PairCount returns the number of L-shot pairs in the configuration.
func (e *Eval) PairCount() int {
	n := 0
	for i, p := range e.partner {
		if p > i {
			n++
		}
	}
	return n
}

// FlashCount returns the number of e-beam flashes the configuration
// writes in: each L-shot pair is one flash, every unpaired rectangle
// is one flash.
func (e *Eval) FlashCount() int { return len(e.Shots) - e.PairCount() }

// Pairs returns the L-shot pairs as {i, j} index pairs with i < j,
// sorted ascending by i. The slice is freshly allocated.
func (e *Eval) Pairs() [][2]int {
	var out [][2]int
	for i, p := range e.partner {
		if p > i {
			out = append(out, [2]int{i, p})
		}
	}
	return out
}

// Pair merges shots i and j into one L-shot: both keep their slots in
// the shot list, but their doses are corrected by subtracting the
// overlap term so the pair delivers exactly the dose of the single
// L-aperture flash over their union. Pair panics if i == j or either
// shot is already paired. The caller is responsible for geometric
// L-compatibility (see UnionIsLShot); the dose bookkeeping itself is
// valid for any two rectangles. O(overlap support box).
func (e *Eval) Pair(i, j int) {
	if i == j {
		panic("cover: Pair(i, i)")
	}
	if e.partner[i] >= 0 || e.partner[j] >= 0 {
		panic(fmt.Sprintf("cover: Pair(%d, %d): shot already paired", i, j))
	}
	e.partner[i], e.partner[j] = j, i
	if o := pairOverlap(e.Shots[i], e.Shots[j]); o != (geom.Rect{}) {
		e.apply([]doseTerm{{o, -1}})
	} else {
		e.finishMutation(0)
	}
	if e.check {
		e.crossCheck("Pair")
	}
}

// Unpair splits the L-shot containing shot i back into two independent
// rectangles, restoring the overlap dose. It is the exact inverse of
// Pair. Panics if shot i is not paired. O(overlap support box).
func (e *Eval) Unpair(i int) {
	j := e.partner[i]
	if j < 0 {
		panic(fmt.Sprintf("cover: Unpair(%d): shot not paired", i))
	}
	e.partner[i], e.partner[j] = -1, -1
	if o := pairOverlap(e.Shots[i], e.Shots[j]); o != (geom.Rect{}) {
		e.apply([]doseTerm{{o, 1}})
	} else {
		e.finishMutation(0)
	}
	if e.check {
		e.crossCheck("Unpair")
	}
}

// UnpairDelta returns the change in Eq. 5 cost if the L-shot containing
// shot i were split back into rectangles — the scoring counterpart of
// Unpair. Panics if shot i is not paired.
func (e *Eval) UnpairDelta(i int) float64 {
	j := e.partner[i]
	if j < 0 {
		panic(fmt.Sprintf("cover: UnpairDelta(%d): shot not paired", i))
	}
	e.Evals++
	o := pairOverlap(e.Shots[i], e.Shots[j])
	if o == (geom.Rect{}) {
		return 0
	}
	return e.scoreOwn([]doseTerm{{o, 1}})
}

// ResetPaired replaces the entire configuration with the given shots
// and L-shot pairs and rebuilds dose and violation state from scratch:
// O(grid + Σ support boxes). Use it to restore a snapshot; single-shot
// changes should go through the incremental mutators instead. Each
// pairs element is an {i, j} index pair into shots; indices must be
// distinct across pairs.
func (e *Eval) ResetPaired(shots []geom.Rect, pairs [][2]int) {
	e.Shots = append(e.Shots[:0], shots...)
	e.resetPartners(len(shots))
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if i == j || e.partner[i] >= 0 || e.partner[j] >= 0 {
			panic(fmt.Sprintf("cover: ResetPaired: invalid pair {%d, %d}", i, j))
		}
		e.partner[i], e.partner[j] = j, i
	}
	clear(e.Dose.V)
	e.accBuf = e.P.accumulatePaired(e.Dose, e.Shots, pairs, e.accBuf)
	e.RecomputeStats()
	if e.check {
		e.crossCheck("ResetPaired")
	}
}

// resetPartners sizes the partner table for n shots, all unpaired.
func (e *Eval) resetPartners(n int) {
	if cap(e.partner) < n {
		e.partner = make([]int, n)
	} else {
		e.partner = e.partner[:n]
	}
	for i := range e.partner {
		e.partner[i] = -1
	}
}

// EvaluatePaired computes the violation statistics of a shot set with
// L-shot pairs from scratch. The dose field and accumulation scratch
// come from the instance's arena, so repeated from-scratch evaluations
// (quality reports, cross-checks) allocate nothing at steady state.
func (p *Problem) EvaluatePaired(shots []geom.Rect, pairs [][2]int) Stats {
	dose := p.pairedDose(shots, pairs)
	st := p.classifyDose(dose, nil, nil, nil)
	p.arena.putF64(dose)
	return st
}

// pairedDose returns the from-scratch dose field of a shot set with
// L-shot pairs in a buffer from the instance's arena; the caller returns
// it with putF64.
func (p *Problem) pairedDose(shots []geom.Rect, pairs [][2]int) []float64 {
	a := p.arena
	dose := raster.Field{Grid: p.Grid, V: a.getF64(p.Grid.Len())}
	a.putF32(p.accumulatePaired(&dose, shots, pairs, a.getF32(0)))
	return dose.V
}

// accumulatePaired adds the dose of a shot set with L-shot pairs to f —
// every shot positively, then every pair's positive-area overlap
// negatively — and returns the possibly grown scratch.
func (p *Problem) accumulatePaired(f *raster.Field, shots []geom.Rect, pairs [][2]int, scratch []float32) []float32 {
	for _, s := range shots {
		scratch = p.Model.AccumulateShotBuf(f, s, 1, scratch)
	}
	for _, pr := range pairs {
		if o := pairOverlap(shots[pr[0]], shots[pr[1]]); o != (geom.Rect{}) {
			scratch = p.Model.AccumulateShotBuf(f, o, -1, scratch)
		}
	}
	return scratch
}

// overlapMove returns the dose terms that re-point a pair's overlap
// correction when one arm moves from old to repl while its partner
// stays put: the pair's dose carries −I_overlap, so the change is
// +I_oldOverlap − I_newOverlap, with zero overlaps left out. n is 0
// when the overlap does not change.
func overlapMove(old, repl, partner geom.Rect) (ts [2]doseTerm, n int) {
	oOld, oNew := pairOverlap(old, partner), pairOverlap(repl, partner)
	if oOld == oNew {
		return ts, 0
	}
	if oOld != (geom.Rect{}) {
		ts[n] = doseTerm{oOld, 1}
		n++
	}
	if oNew != (geom.Rect{}) {
		ts[n] = doseTerm{oNew, -1}
		n++
	}
	return ts, n
}
