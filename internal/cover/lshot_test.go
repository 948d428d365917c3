package cover

import (
	"math"
	"math/rand"
	"testing"

	"maskfrac/internal/ebeam"
	"maskfrac/internal/geom"
)

// TestUnionIsLShot pins the compatibility predicate on the shape
// taxonomy: L (one uncovered bounding-box corner), plain rectangle
// coverage, T, staircase, plus, corner-point touch and disjoint pairs.
func TestUnionIsLShot(t *testing.T) {
	r := func(x0, y0, x1, y1 float64) geom.Rect {
		return geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
	}
	cases := []struct {
		name string
		a, b geom.Rect
		want bool
	}{
		{"flush L", r(0, 0, 30, 10), r(0, 10, 10, 30), true},
		{"overlapping L", r(0, 0, 30, 10), r(0, 0, 10, 30), true},
		{"small overlap L", r(0, 0, 30, 10), r(0, 8, 10, 30), true},
		{"mirrored L", r(0, 0, 30, 10), r(20, 10, 30, 30), true},
		{"T shape", r(0, 0, 30, 10), r(10, 10, 20, 30), false},
		{"staircase", r(0, 0, 20, 20), r(10, 10, 30, 30), false},
		{"plus", r(10, 0, 20, 30), r(0, 10, 30, 20), false},
		{"corner touch", r(0, 0, 10, 10), r(10, 10, 20, 20), false},
		{"disjoint", r(0, 0, 10, 10), r(20, 0, 30, 10), false},
		{"contained", r(0, 0, 30, 30), r(5, 5, 10, 10), false},
		{"identical", r(0, 0, 10, 10), r(0, 0, 10, 10), false},
		{"exact stack (rect union)", r(0, 0, 30, 10), r(0, 10, 30, 30), false},
		{"empty arm", geom.Rect{}, r(0, 0, 10, 10), false},
	}
	for _, tc := range cases {
		if got := UnionIsLShot(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: UnionIsLShot(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := UnionIsLShot(tc.b, tc.a); got != tc.want {
			t.Errorf("%s (swapped): UnionIsLShot(%v, %v) = %v, want %v", tc.name, tc.b, tc.a, got, tc.want)
		}
	}
}

// TestEvalLegalMove pins the one legality rule every ±Δp edge loop
// uses: an unpaired shot checks only the minimum size, a paired arm
// must also keep its union with the partner an L.
func TestEvalLegalMove(t *testing.T) {
	p := mustProblem(t, square(60))
	r := func(x0, y0, x1, y1 float64) geom.Rect {
		return geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
	}
	// shots 0 and 1 form a flush L; shot 2 stands alone
	e := NewEval(p, []geom.Rect{r(0, 0, 30, 10), r(0, 10, 10, 30), r(40, 40, 55, 55)})
	defer e.Close()
	e.Pair(0, 1)
	cases := []struct {
		name string
		i    int
		nr   geom.Rect
		want bool
	}{
		{"unpaired: size ok", 2, r(40, 40, 55, 56), true},
		{"unpaired: far move, size ok", 2, r(-20, -20, -8, -8), true},
		{"unpaired: below Lmin", 2, r(40, 40, 45, 55), false},
		{"paired: still an L", 1, r(0, 10, 10, 31), true},
		{"paired: overlap keeps the L", 1, r(0, 9, 10, 30), true},
		{"paired: detached arm", 1, r(0, 11, 10, 30), false},
		{"paired: union becomes a T", 1, r(1, 10, 11, 30), false},
		{"paired: union becomes a rectangle", 1, r(0, 10, 30, 30), false},
		{"paired: below Lmin", 0, r(0, 0, 30, 7), false},
	}
	for _, tc := range cases {
		if got := e.LegalMove(tc.i, tc.nr); got != tc.want {
			t.Errorf("%s: LegalMove(%d, %v) = %v, want %v", tc.name, tc.i, tc.nr, got, tc.want)
		}
	}
}

// checkAgainstScratchPaired asserts the maintained violation state of a
// (possibly L-paired) evaluator equals a from-scratch EvaluatePaired of
// its configuration, and that the partner table is symmetric.
func checkAgainstScratchPaired(t *testing.T, e *Eval, context string) {
	t.Helper()
	for i, p := range e.partner {
		if p >= 0 && e.partner[p] != i {
			t.Fatalf("%s: partner table asymmetric: partner[%d]=%d but partner[%d]=%d",
				context, i, p, p, e.partner[p])
		}
	}
	p := e.P
	st := e.stats
	scratch := p.EvaluatePaired(e.SnapshotShots(), e.Pairs())
	if st.FailOn != scratch.FailOn || st.FailOff != scratch.FailOff {
		t.Fatalf("%s: maintained fail counts %d/%d != from-scratch %d/%d",
			context, st.FailOn, st.FailOff, scratch.FailOn, scratch.FailOff)
	}
	if math.Abs(st.Cost-scratch.Cost) > costTol {
		t.Fatalf("%s: maintained cost %g != from-scratch %g", context, st.Cost, scratch.Cost)
	}
	checkBitmaps(t, e, context)
}

// unpairedPair picks two distinct unpaired shot indices, or (-1, -1).
func unpairedPair(rng *rand.Rand, e *Eval) (int, int) {
	var free []int
	for i, p := range e.partner {
		if p < 0 {
			free = append(free, i)
		}
	}
	if len(free) < 2 {
		return -1, -1
	}
	i := rng.Intn(len(free))
	j := rng.Intn(len(free) - 1)
	if j >= i {
		j++
	}
	return free[i], free[j]
}

// pairedIndex picks a random paired shot index, or -1.
func pairedIndex(rng *rand.Rand, e *Eval) int {
	var paired []int
	for i, p := range e.partner {
		if p >= 0 {
			paired = append(paired, i)
		}
	}
	if len(paired) == 0 {
		return -1
	}
	return paired[rng.Intn(len(paired))]
}

// TestEvalPropertyIncrementalPairedMatchesScratch extends the PR 4
// property harness to the L-shot primitive: random mutation sequences
// mixing Add, Remove (including of paired shots, exercising the
// auto-unpair path), SetShot on paired arms (exercising the overlap
// re-point), score-then-commit ApplyDelta on paired arms (exercising
// the multi-term scan), Pair and Unpair. After every sequence the
// incrementally maintained state must equal EvaluatePaired from
// scratch. 60 sequences on each of the two proximity models = 120
// random mutation sequences.
func TestEvalPropertyIncrementalPairedMatchesScratch(t *testing.T) {
	const side = 60.0
	defer ebeam.SetProfileCheck(ebeam.SetProfileCheck(true))
	for name, params := range propParams() {
		t.Run(name, func(t *testing.T) {
			p, err := NewProblem(square(side), params)
			if err != nil {
				t.Fatal(err)
			}
			for seq := 0; seq < 60; seq++ {
				rng := rand.New(rand.NewSource(int64(5000 + seq)))
				e := NewEval(p, []geom.Rect{randShot(rng, p, side), randShot(rng, p, side)})
				for op := 0; op < 40; op++ {
					switch choice := rng.Intn(12); {
					case choice < 3 || len(e.Shots) < 2: // Add
						e.Add(randShot(rng, p, side))
					case choice < 5: // Remove (paired shots auto-unpair)
						e.Remove(rng.Intn(len(e.Shots)))
					case choice < 7: // SetShot, possibly on a paired arm
						e.SetShot(rng.Intn(len(e.Shots)), randShot(rng, p, side))
					case choice < 9: // score-then-commit via ApplyDelta
						i := rng.Intn(len(e.Shots))
						nr := e.Shots[i]
						nr.X1 += p.Params.Pitch * float64(1+rng.Intn(3))
						nr.Y0 -= p.Params.Pitch * float64(rng.Intn(2))
						before := e.Stats().Cost
						delta := e.DeltaCost(i, nr)
						e.ApplyDelta(i, nr, delta)
						// a scored delta must match the realized change
						// (unless the feasible re-anchor fired)
						if after := e.Stats(); after.Fail() > 0 {
							got := after.Cost - before
							if math.Abs(got-delta) > costTol+1e-9*math.Abs(before) {
								t.Fatalf("seq %d op %d: scored delta %g, realized %g (paired=%v)",
									seq, op, delta, got, e.Partner(i) >= 0)
							}
						}
					case choice < 11: // Pair two unpaired shots
						if i, j := unpairedPair(rng, e); i >= 0 {
							e.Pair(i, j)
						}
					default: // Unpair
						if i := pairedIndex(rng, e); i >= 0 {
							before := e.Stats().Cost
							delta := e.UnpairDelta(i)
							e.Unpair(i)
							if after := e.Stats(); after.Fail() > 0 {
								got := after.Cost - before
								if math.Abs(got-delta) > costTol+1e-9*math.Abs(before) {
									t.Fatalf("seq %d op %d: UnpairDelta scored %g, realized %g", seq, op, delta, got)
								}
							}
						}
					}
				}
				checkAgainstScratchPaired(t, e, name)
				e.Close()
			}
		})
	}
}

// TestEvalPairedCrossCheckMode drives the paired mutators with the
// debug cross-check enabled, so every mutation self-verifies against
// both the evaluator's own dose field and EvaluatePaired from scratch.
func TestEvalPairedCrossCheckMode(t *testing.T) {
	for name, params := range propParams() {
		p, err := NewProblem(square(40), params)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEval(p, nil)
		e.SetCrossCheck(true)
		e.Add(geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 12})
		e.Add(geom.Rect{X0: 0, Y0: 10, X1: 14, Y1: 40})
		e.Add(geom.Rect{X0: 12, Y0: 10, X1: 40, Y1: 40})
		e.Pair(0, 1)
		// move the paired arm: overlap shrinks to flush and regrows
		e.SetShot(1, geom.Rect{X0: 0, Y0: 12, X1: 14, Y1: 40})
		e.SetShot(1, geom.Rect{X0: 0, Y0: 9, X1: 14, Y1: 40})
		nr := geom.Rect{X0: 0, Y0: 8, X1: 15, Y1: 40}
		delta := e.DeltaCost(1, nr)
		e.ApplyDelta(1, nr, delta)
		e.Unpair(0)
		e.Pair(1, 2)
		e.Remove(1) // removing a paired shot splits the pair first
		e.ResetPaired(
			[]geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 12}, {X0: 0, Y0: 10, X1: 14, Y1: 40}},
			[][2]int{{0, 1}},
		)
		if e.FlashCount() != 1 || e.PairCount() != 1 {
			t.Fatalf("%s: after ResetPaired: flashes %d pairs %d, want 1/1", name, e.FlashCount(), e.PairCount())
		}
		e.Close()
	}
}

// TestEvalPairBookkeeping pins the structural pairing contract: flash
// counts, Pairs ordering, Remove's swap-delete partner redirection and
// Reset clearing all pairs.
func TestEvalPairBookkeeping(t *testing.T) {
	p := mustProblem(t, square(60))
	shots := []geom.Rect{
		{X0: 0, Y0: 0, X1: 60, Y1: 20},
		{X0: 0, Y0: 20, X1: 20, Y1: 60},
		{X0: 20, Y0: 20, X1: 60, Y1: 40},
		{X0: 40, Y0: 40, X1: 60, Y1: 60},
	}
	e := NewEval(p, shots)
	if e.FlashCount() != 4 {
		t.Fatalf("unpaired flash count %d, want 4", e.FlashCount())
	}
	e.Pair(0, 1)
	e.Pair(3, 2)
	if e.FlashCount() != 2 || e.PairCount() != 2 {
		t.Fatalf("flashes %d pairs %d, want 2/2", e.FlashCount(), e.PairCount())
	}
	pairs := e.Pairs()
	if len(pairs) != 2 || pairs[0] != [2]int{0, 1} || pairs[1] != [2]int{2, 3} {
		t.Fatalf("Pairs() = %v, want [[0 1] [2 3]]", pairs)
	}
	// removing shot 1 splits pair {0,1} and swap-moves shot 3 (paired
	// with 2) into slot 1; the partner table must follow the move
	e.Remove(1)
	if e.Partner(0) != -1 {
		t.Fatalf("partner(0) = %d after removing its pair, want -1", e.Partner(0))
	}
	if e.Partner(1) != 2 || e.Partner(2) != 1 {
		t.Fatalf("swap-delete partners: partner(1)=%d partner(2)=%d, want 2/1", e.Partner(1), e.Partner(2))
	}
	checkAgainstScratchPaired(t, e, "after remove")
	e.Reset(shots)
	if e.PairCount() != 0 {
		t.Fatalf("Reset kept %d pairs, want 0", e.PairCount())
	}
	e.Close()
}
