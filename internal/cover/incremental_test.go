package cover

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"maskfrac/internal/ebeam"
	"maskfrac/internal/geom"
)

// costTol is the tolerance for comparing the maintained running cost
// against a freshly summed one: the running sum accumulates
// retire/restore pairs in mutation order and a from-scratch dose field
// accumulates shots in shot order, so both differ from the maintained
// value by float rounding only.
const costTol = 1e-6

// propParams returns the parameter sets the property tests cover: the
// paper's single-Gaussian model and a two-Gaussian backscatter model.
func propParams() map[string]Params {
	double := DefaultParams()
	double.Beta, double.Eta = 30, 0.3
	return map[string]Params{"single": DefaultParams(), "double": double}
}

// randShot draws a legal shot near the target square of side `side`.
func randShot(rng *rand.Rand, p *Problem, side float64) geom.Rect {
	lmin := p.Params.Lmin
	w := lmin + rng.Float64()*(side-lmin)
	h := lmin + rng.Float64()*(side-lmin)
	x := -5 + rng.Float64()*(side+10-w)
	y := -5 + rng.Float64()*(side+10-h)
	return geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
}

// checkAgainstScratch asserts the maintained violation state of e
// equals a from-scratch evaluation of its shot list: fail counts and
// bitmaps exactly, cost within rounding tolerance.
func checkAgainstScratch(t *testing.T, e *Eval, context string) {
	t.Helper()
	p := e.P
	st := e.stats
	scratch := p.Evaluate(e.SnapshotShots())
	if st.FailOn != scratch.FailOn || st.FailOff != scratch.FailOff {
		t.Fatalf("%s: maintained fail counts %d/%d != from-scratch %d/%d",
			context, st.FailOn, st.FailOff, scratch.FailOn, scratch.FailOff)
	}
	if math.Abs(st.Cost-scratch.Cost) > costTol {
		t.Fatalf("%s: maintained cost %g != from-scratch %g", context, st.Cost, scratch.Cost)
	}
	// bitmaps and counts must match an exact scan of the evaluator's
	// own dose field pixel for pixel
	checkBitmaps(t, e, context)
}

// checkBitmaps asserts the maintained failing and live bitmaps equal an
// exact scan of the evaluator's own dose field, pixel for pixel.
func checkBitmaps(t *testing.T, e *Eval, context string) {
	t.Helper()
	p := e.P
	failOn, failOff := e.FailingBitmaps()
	rho, margin := p.Params.Rho, p.liveMargin
	for k, c := range p.Class {
		v := e.Dose.V[k]
		wantOn := c == On && v < rho
		wantOff := c == Off && v >= rho
		if failOn.Bits[k] != wantOn || failOff.Bits[k] != wantOff {
			t.Fatalf("%s: bitmap mismatch at pixel %d (class %d dose %g)", context, k, c, v)
		}
		wantLive := c == On && v-rho <= margin || c == Off && rho-v <= margin
		if gotLive := e.live[k>>6]>>(k&63)&1 == 1; gotLive != wantLive {
			t.Fatalf("%s: live bit %v at pixel %d (class %d dose %g), want %v", context, gotLive, k, c, v, wantLive)
		}
	}
}

// TestEvalPropertyIncrementalMatchesScratch drives random
// Add/Remove/SetShot/ApplyDelta sequences and asserts after every
// sequence that the incrementally maintained Stats and FailingBitmaps
// equal Problem.Evaluate from scratch, on both proximity models. With
// 60 sequences per model this covers 120 random mutation sequences.
func TestEvalPropertyIncrementalMatchesScratch(t *testing.T) {
	const side = 60.0
	// also verify every float32 strip-kernel fill the sequences trigger
	// against the float64 reference (panics with the first diverging
	// strip coordinate if EdgeProfiles32 drifts past ProfileTol32)
	defer ebeam.SetProfileCheck(ebeam.SetProfileCheck(true))
	for name, params := range propParams() {
		t.Run(name, func(t *testing.T) {
			p, err := NewProblem(square(side), params)
			if err != nil {
				t.Fatal(err)
			}
			for seq := 0; seq < 60; seq++ {
				rng := rand.New(rand.NewSource(int64(1000 + seq)))
				e := NewEval(p, []geom.Rect{randShot(rng, p, side)})
				for op := 0; op < 40; op++ {
					switch choice := rng.Intn(10); {
					case choice < 4 || len(e.Shots) == 0: // Add
						e.Add(randShot(rng, p, side))
					case choice < 6: // Remove
						e.Remove(rng.Intn(len(e.Shots)))
					case choice < 8: // SetShot
						e.SetShot(rng.Intn(len(e.Shots)), randShot(rng, p, side))
					default: // score-then-commit via ApplyDelta
						i := rng.Intn(len(e.Shots))
						nr := e.Shots[i]
						nr.X1 += p.Params.Pitch * float64(1+rng.Intn(3))
						delta := e.DeltaCost(i, nr)
						e.ApplyDelta(i, nr, delta)
					}
				}
				checkAgainstScratch(t, e, name)
			}
		})
	}
}

// TestDeltaCostSparseMatchesDense checks that sparse scoring is exact:
// on random configurations with L-paired shots, under both proximity
// models, every edge move of 1–5 pitches and every pair split or merge
// scores the same float64 bits sparsely as with every row scored
// densely. A one-pitch move of an unpaired shot must visit only live
// pixels; longer moves push rows over the live margin, so both the
// live-bit walk and the dense fallback run. Scored moves are committed
// now and then, so the live bitmap is the commit pass's, not only the
// rebuild's.
func TestDeltaCostSparseMatchesDense(t *testing.T) {
	const side = 60.0
	for name, params := range propParams() {
		t.Run(name, func(t *testing.T) {
			p, err := NewProblem(square(side), params)
			if err != nil {
				t.Fatal(err)
			}
			pitch := p.Params.Pitch
			var skipped, fellBack int
			// compare scores terms both ways and returns the sparse
			// score and whether every visited pixel was live
			compare := func(e *Eval, terms []doseTerm, what string) (float64, bool) {
				t.Helper()
				var s strips
				e.fill(&s, terms, &e.own.scr)
				sparse, pxSparse := e.score(&s, true, e.own.scr.row)
				dense, pxDense := e.score(&s, false, e.own.scr.row)
				if math.Float64bits(sparse) != math.Float64bits(dense) {
					t.Fatalf("%s: sparse score %v (%#x) != dense %v (%#x)",
						what, sparse, math.Float64bits(sparse), dense, math.Float64bits(dense))
				}
				var live int64
				for jo := 0; jo < s.ny; jo++ {
					for io := 0; io < s.nx; io++ {
						k := (s.wj0+jo)*p.Grid.W + s.wi0 + io
						live += int64(e.live[k>>6] >> (k & 63) & 1)
					}
				}
				if pxSparse < pxDense {
					skipped++
				}
				if pxSparse > live {
					fellBack++
				}
				return sparse, pxSparse == live
			}
			for seq := 0; seq < 8; seq++ {
				rng := rand.New(rand.NewSource(int64(9000 + seq)))
				var shots []geom.Rect
				for range 5 {
					shots = append(shots, randShot(rng, p, side))
				}
				e := NewEval(p, shots)
				e.SetCrossCheck(false)
				for range 2 {
					if i, j := unpairedPair(rng, e); i >= 0 {
						compare(e, []doseTerm{{pairOverlap(e.Shots[i], e.Shots[j]), -1}}, "pair")
						e.Pair(i, j)
					}
				}
				for i := range e.Shots {
					if j := e.Partner(i); j > i {
						compare(e, []doseTerm{{pairOverlap(e.Shots[i], e.Shots[j]), 1}}, "unpair")
					}
					for edge := range 4 {
						for steps := 1; steps <= 5; steps++ {
							for _, d := range []float64{pitch, -pitch} {
								nr := e.Shots[i]
								*[4]*float64{&nr.X0, &nr.X1, &nr.Y0, &nr.Y1}[edge] += float64(steps) * d
								if nr.Empty() {
									continue
								}
								what := fmt.Sprintf("seq %d shot %d edge %d move %+g", seq, i, edge, float64(steps)*d)
								terms, n := e.moveTerms(i, nr)
								delta, allLive := compare(e, terms[:n], what)
								if steps == 1 && e.Partner(i) < 0 && !allLive {
									t.Fatalf("%s: a one-pitch move scored a row densely", what)
								}
								if got := e.DeltaCost(i, nr); math.Float64bits(got) != math.Float64bits(delta) {
									t.Fatalf("%s: DeltaCost %v != sparse score %v", what, got, delta)
								}
								if rng.Intn(8) == 0 {
									e.ApplyDelta(i, nr, delta)
								}
							}
						}
					}
				}
				checkBitmaps(t, e, name)
				e.Close()
			}
			if skipped == 0 || fellBack == 0 {
				t.Fatalf("scans that skipped pixels %d, scans with a dense row %d: want both > 0", skipped, fellBack)
			}
			t.Logf("%d scans skipped pixels, %d scored a row densely", skipped, fellBack)
		})
	}
}

// TestScorersConcurrent scores random moves of paired and unpaired
// shots from several goroutines at once, each through its own Scorer
// against one Eval, and checks every score equals Eval.DeltaCost bit
// for bit and the folded Evals and PixelsScored equal the sequential
// run's.
func TestScorersConcurrent(t *testing.T) {
	const side, goroutines = 60.0, 4
	for name, params := range propParams() {
		t.Run(name, func(t *testing.T) {
			p, err := NewProblem(square(side), params)
			if err != nil {
				t.Fatal(err)
			}
			pitch := p.Params.Pitch
			for seq := 0; seq < 4; seq++ {
				rng := rand.New(rand.NewSource(int64(7100 + seq)))
				var shots []geom.Rect
				for range 6 {
					shots = append(shots, randShot(rng, p, side))
				}
				e := NewEval(p, shots)
				for range 2 {
					if i, j := unpairedPair(rng, e); i >= 0 {
						e.Pair(i, j)
					}
				}
				type move struct {
					i  int
					nr geom.Rect
				}
				var moves []move
				for range 120 {
					i := rng.Intn(len(e.Shots))
					nr := e.Shots[i].MoveEdge(geom.Sides[rng.Intn(4)], float64(rng.Intn(7)-3)*pitch)
					if !nr.Empty() {
						moves = append(moves, move{i, nr})
					}
				}
				want := make([]float64, len(moves))
				evals0, px0 := e.Evals, e.PixelsScored
				for k, m := range moves {
					want[k] = e.DeltaCost(m.i, m.nr)
				}
				evals1, px1 := e.Evals, e.PixelsScored

				got := make([]float64, len(moves))
				scorers := e.Scorers(goroutines)
				var wg sync.WaitGroup
				for g, sc := range scorers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := g; k < len(moves); k += goroutines {
							got[k] = sc.DeltaCost(moves[k].i, moves[k].nr)
						}
					}()
				}
				wg.Wait()
				for _, sc := range scorers {
					sc.Fold()
				}
				for k, m := range moves {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("seq %d move %d (shot %d, partner %d): scorer %v != DeltaCost %v",
							seq, k, m.i, e.Partner(m.i), got[k], want[k])
					}
				}
				if e.Evals-evals1 != evals1-evals0 || e.PixelsScored-px1 != px1-px0 {
					t.Fatalf("seq %d: scorers folded %d evals and %d pixels, sequential run %d and %d",
						seq, e.Evals-evals1, e.PixelsScored-px1, evals1-evals0, px1-px0)
				}
				e.Close()
			}
		})
	}
}

// TestEvalCrossCheckMode exercises the debug cross-check path: with
// SetCrossCheck(true) every mutation self-verifies against the dose
// field and a from-scratch evaluation, panicking on divergence.
func TestEvalCrossCheckMode(t *testing.T) {
	for name, params := range propParams() {
		p, err := NewProblem(square(40), params)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		e := NewEval(p, nil)
		e.SetCrossCheck(true)
		e.Add(geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40})
		e.Add(randShot(rng, p, 40))
		e.SetShot(1, randShot(rng, p, 40))
		delta := e.DeltaCost(0, geom.Rect{X0: 1, Y0: 0, X1: 40, Y1: 40})
		e.ApplyDelta(0, geom.Rect{X0: 1, Y0: 0, X1: 40, Y1: 40}, delta)
		e.Remove(1)
		e.Reset([]geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}})
		_ = name
	}
}

// TestEvalUndoRemove checks that UndoRemove restores both the exact
// shot order and the violation state after a speculative Remove, for
// the middle-of-list (swap happened) and last-shot (no swap) cases.
func TestEvalUndoRemove(t *testing.T) {
	p := mustProblem(t, square(60))
	shots := []geom.Rect{
		{X0: 0, Y0: 0, X1: 20, Y1: 60},
		{X0: 18, Y0: 0, X1: 40, Y1: 60},
		{X0: 38, Y0: 0, X1: 60, Y1: 60},
	}
	for i := range shots {
		e := NewEval(p, shots)
		before := e.Stats()
		s := e.Shots[i]
		e.Remove(i)
		e.UndoRemove(i, s)
		for j, want := range shots {
			if e.Shots[j] != want {
				t.Fatalf("remove/undo %d: shot %d = %v, want %v", i, j, e.Shots[j], want)
			}
		}
		after := e.Stats()
		if after.FailOn != before.FailOn || after.FailOff != before.FailOff ||
			math.Abs(after.Cost-before.Cost) > costTol {
			t.Fatalf("remove/undo %d: stats %+v, want %+v", i, after, before)
		}
		checkAgainstScratch(t, e, "undo")
	}
}

// TestEvalReset checks that Reset swaps in a new configuration and
// rebuilds state equal to constructing a fresh evaluator.
func TestEvalReset(t *testing.T) {
	p := mustProblem(t, square(40))
	e := NewEval(p, []geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 10}})
	target := []geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}, {X0: 5, Y0: 5, X1: 20, Y1: 20}}
	e.Reset(target)
	fresh := NewEval(p, target)
	if e.Stats() != fresh.Stats() {
		t.Fatalf("reset stats %+v != fresh %+v", e.stats, fresh.stats)
	}
	checkAgainstScratch(t, e, "reset")
}

// TestEvalStatsIsMaintained locks in the O(1) Stats contract: the
// value returned without any scan equals a forced full recompute.
func TestEvalStatsIsMaintained(t *testing.T) {
	p := mustProblem(t, square(50))
	rng := rand.New(rand.NewSource(11))
	e := NewEval(p, nil)
	for i := 0; i < 25; i++ {
		e.Add(randShot(rng, p, 50))
		if i%3 == 0 && len(e.Shots) > 1 {
			e.Remove(rng.Intn(len(e.Shots)))
		}
	}
	st := e.Stats()
	re := e.RecomputeStats()
	if st.FailOn != re.FailOn || st.FailOff != re.FailOff || math.Abs(st.Cost-re.Cost) > costTol {
		t.Fatalf("maintained %+v != recomputed %+v", st, re)
	}
	if e.Stats().Cost != re.Cost {
		t.Error("RecomputeStats did not re-anchor the maintained cost")
	}
}

// TestEvalEffortCounters checks the per-evaluator effort bookkeeping:
// mutations and pixel counts move with each operation and strip commits
// visit far fewer pixels than the grid.
func TestEvalEffortCounters(t *testing.T) {
	p := mustProblem(t, square(60))
	e := NewEval(p, nil)
	if e.Mutations != 0 || e.PixelsMutated != 0 || e.PixelsScored != 0 {
		t.Fatalf("fresh evaluator has effort %d/%d/%d", e.Mutations, e.PixelsMutated, e.PixelsScored)
	}
	e.Add(geom.Rect{X0: 0, Y0: 0, X1: 60, Y1: 60})
	if e.Mutations != 1 || e.PixelsMutated == 0 {
		t.Fatalf("after Add: mutations %d pixels %d", e.Mutations, e.PixelsMutated)
	}
	nr := geom.Rect{X0: 0, Y0: 0, X1: 61, Y1: 60}
	if e.DeltaCost(0, nr); e.PixelsScored == 0 {
		t.Fatal("DeltaCost scored no pixels")
	}
	before := e.PixelsMutated
	e.SetShot(0, nr)
	stripPx := e.PixelsMutated - before
	if stripPx == 0 {
		t.Fatal("SetShot commit scanned no pixels")
	}
	if grid := int64(p.Grid.Len()); stripPx*2 > grid {
		t.Fatalf("single-edge commit scanned %d of %d grid pixels; strips should be far smaller", stripPx, grid)
	}
	if got := EvalCounters(); got.Mutations == 0 || got.PixelsMutated == 0 {
		t.Errorf("process-wide counters did not move: %+v", got)
	}
}

// TestFailingBitmapsLive documents the shared-view contract: the
// returned bitmaps are the maintained state and reflect mutations made
// after the call.
func TestFailingBitmapsLive(t *testing.T) {
	p := mustProblem(t, square(40))
	e := NewEval(p, nil)
	failOn, _ := e.FailingBitmaps()
	if failOn.Count() != p.OnCount() {
		t.Fatalf("empty config: %d failing interior pixels, want %d", failOn.Count(), p.OnCount())
	}
	e.Add(geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40})
	if failOn.Count() == p.OnCount() {
		t.Error("bitmap did not update in place after Add")
	}
	again, _ := e.FailingBitmaps()
	if again != failOn {
		t.Error("FailingBitmaps returned a new bitmap; want the maintained view")
	}
}

// TestEvalMutationObserver checks the process-wide observer hook fires
// per committed mutation with a positive pixel count.
func TestEvalMutationObserver(t *testing.T) {
	var calls int
	var pixels int64
	SetMutationObserver(func(px int) { calls++; pixels += int64(px) })
	defer SetMutationObserver(nil)
	p := mustProblem(t, square(40))
	e := NewEval(p, nil)
	e.Add(geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40})
	e.SetShot(0, geom.Rect{X0: 0, Y0: 0, X1: 41, Y1: 40})
	e.Remove(0)
	if calls != 3 {
		t.Fatalf("observer fired %d times, want 3", calls)
	}
	if pixels == 0 {
		t.Error("observer saw zero pixels")
	}
}
