package core

import (
	"math/rand"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// testGraphs is the topology zoo shared by the convergence tests: SSME's
// point is that it runs on arbitrary connected graphs, not just rings.
func testGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	return []*graph.Graph{
		graph.Ring(8),
		graph.Ring(9),
		graph.Path(7),
		graph.Star(6),
		graph.Complete(5),
		graph.Grid(3, 4),
		graph.Torus(3, 3),
		graph.Hypercube(3),
		graph.BinaryTree(7),
		graph.Petersen(),
		graph.Wheel(6),
		graph.Lollipop(4, 3),
		graph.RandomTree(9, rng),
		graph.RandomConnected(9, 5, rng),
	}
}

func TestParamsMatchPaper(t *testing.T) {
	t.Parallel()
	for _, g := range testGraphs(t) {
		x := Params(g)
		n, d := g.N(), g.Diameter()
		if x.Alpha != n {
			t.Errorf("%s: α = %d, want n = %d", g.Name(), x.Alpha, n)
		}
		if want := (2*n-1)*(d+1) + 2; x.K != want {
			t.Errorf("%s: K = %d, want (2n−1)(diam+1)+2 = %d", g.Name(), x.K, want)
		}
	}
}

func TestPrivilegeValuesWellSeparated(t *testing.T) {
	t.Parallel()
	for _, g := range testGraphs(t) {
		p := MustNew(g)
		d := g.Diameter()
		for u := 0; u < g.N(); u++ {
			pu := p.PrivilegeValue(u)
			if !p.Clock().InStab(pu) {
				t.Fatalf("%s: privilege value %d of vertex %d outside stabX", g.Name(), pu, u)
			}
			for v := u + 1; v < g.N(); v++ {
				if dk := p.Clock().DK(pu, p.PrivilegeValue(v)); dk <= d {
					t.Errorf("%s: d_K(priv(%d), priv(%d)) = %d ≤ diam = %d — Γ₁ safety would break",
						g.Name(), u, v, dk, d)
				}
			}
		}
	}
}

func TestPaperExamplePrivilegeEndpoints(t *testing.T) {
	t.Parallel()
	// The paper spells out privileged_{v0} ≡ (r = 2n) and
	// privileged_{v_{n−1}} ≡ (r = (2n−2)(diam+1)+2).
	for _, g := range testGraphs(t) {
		p := MustNew(g)
		n, d := g.N(), g.Diameter()
		if got := p.PrivilegeValue(0); got != 2*n {
			t.Errorf("%s: priv(0) = %d, want 2n = %d", g.Name(), got, 2*n)
		}
		if got, want := p.PrivilegeValue(n-1), (2*n-2)*(d+1)+2; got != want {
			t.Errorf("%s: priv(n−1) = %d, want (2n−2)(diam+1)+2 = %d", g.Name(), got, want)
		}
	}
}

func TestSyncConvergenceWithinTheorem2Bound(t *testing.T) {
	t.Parallel()
	for _, g := range testGraphs(t) {
		p := MustNew(g)
		bound := SyncBound(g)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			initial := sim.RandomConfig[int](p, rng)
			rep, err := p.MeasureSync(initial)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			if rep.ConvergenceSteps > bound {
				t.Errorf("%s trial %d: synchronous convergence %d steps > ⌈diam/2⌉ = %d",
					g.Name(), trial, rep.ConvergenceSteps, bound)
			}
			if rep.ClosureBroken {
				t.Errorf("%s trial %d: safety violated after Γ₁ — closure broken", g.Name(), trial)
			}
			if rep.FirstLegitStep < 0 {
				t.Errorf("%s trial %d: Γ₁ never reached within horizon", g.Name(), trial)
			}
			if rep.FirstLegitStep > p.SyncUnisonHorizon() {
				t.Errorf("%s trial %d: Γ₁ reached at step %d > 2n+diam = %d",
					g.Name(), trial, rep.FirstLegitStep, p.SyncUnisonHorizon())
			}
		}
	}
}

func TestWorstSyncConfigAttainsBoundExactly(t *testing.T) {
	t.Parallel()
	for _, g := range testGraphs(t) {
		if g.N() < 2 {
			continue
		}
		p := MustNew(g)
		initial, err := p.WorstSyncConfig()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		rep, err := p.MeasureSync(initial)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if want := SyncBound(g); rep.ConvergenceSteps != want {
			t.Errorf("%s: island config converged in %d steps, want exactly ⌈diam/2⌉ = %d",
				g.Name(), rep.ConvergenceSteps, want)
		}
	}
}

func TestDoublePrivilegeAtEveryScheduledStep(t *testing.T) {
	t.Parallel()
	for _, g := range []*graph.Graph{graph.Path(9), graph.Ring(10), graph.Grid(3, 4)} {
		p := MustNew(g)
		for tt := 0; tt <= p.MaxDoublePrivilegeStep(); tt++ {
			initial, err := p.DoublePrivilegeConfig(tt)
			if err != nil {
				t.Fatalf("%s t=%d: %v", g.Name(), tt, err)
			}
			e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
			for s := 0; s < tt; s++ {
				if _, err := e.Step(); err != nil {
					t.Fatalf("%s t=%d: %v", g.Name(), tt, err)
				}
			}
			if got := p.PrivilegedCount(e.Current()); got < 2 {
				t.Errorf("%s: expected ≥2 privileged vertices at step %d, got %d",
					g.Name(), tt, got)
			}
		}
	}
}

func TestDoublePrivilegeConfigRejectsOutOfRange(t *testing.T) {
	t.Parallel()
	p := MustNew(graph.Path(9))
	if _, err := p.DoublePrivilegeConfig(-1); err == nil {
		t.Error("want error for t = -1")
	}
	if _, err := p.DoublePrivilegeConfig(p.MaxDoublePrivilegeStep() + 1); err == nil {
		t.Error("want error past the island budget")
	}
}

func TestUnfairDaemonsConvergeWithinTheorem3Bound(t *testing.T) {
	t.Parallel()
	for _, g := range []*graph.Graph{graph.Ring(6), graph.Path(6), graph.Star(6), graph.Grid(2, 3)} {
		p := MustNew(g)
		bound := p.UnfairBoundMoves()
		daemons := []sim.Daemon[int]{
			daemon.NewRandomCentral[int](),
			daemon.NewMinIDCentral[int](),
			daemon.NewMaxIDCentral[int](),
			daemon.NewRoundRobin[int](g.N()),
			daemon.NewDistributed[int](0.5),
			daemon.NewLookahead[int](p, p.DisorderPotential, 4),
			daemon.NewGreedyCentral[int](p, p.DisorderPotential),
		}
		rng := rand.New(rand.NewSource(11))
		for _, d := range daemons {
			initial := sim.RandomConfig[int](p, rng)
			// Horizon in steps: the move bound is also a step bound since
			// every step fires at least one move.
			rep, err := p.MeasureUnder(d, initial, 5, bound+p.Clock().K)
			if err != nil {
				t.Fatalf("%s under %s: %v", g.Name(), d.Name(), err)
			}
			if rep.FirstLegitStep < 0 {
				t.Errorf("%s under %s: Γ₁ not reached within Theorem 3 horizon", g.Name(), d.Name())
				continue
			}
			if rep.FirstLegitMoves > bound {
				t.Errorf("%s under %s: %d moves to Γ₁ > Theorem 3 bound %d",
					g.Name(), d.Name(), rep.FirstLegitMoves, bound)
			}
			if rep.ClosureBroken {
				t.Errorf("%s under %s: closure broken", g.Name(), d.Name())
			}
		}
	}
}

func TestServiceAfterStabilization(t *testing.T) {
	t.Parallel()
	for _, g := range []*graph.Graph{graph.Ring(6), graph.Grid(3, 3), graph.Star(5)} {
		p := MustNew(g)
		initial, err := p.UniformConfig(0)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
		rep, err := p.MeasureService(e, p.ServiceWindow())
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !rep.AllServed {
			t.Errorf("%s: not every vertex executed its critical section in a full service window: %v",
				g.Name(), rep.CSCount)
		}
		if rep.ConcurrentCS != 0 {
			t.Errorf("%s: %d concurrent critical sections from a legitimate start", g.Name(), rep.ConcurrentCS)
		}
	}
}

func TestUniformConfigLegitimate(t *testing.T) {
	t.Parallel()
	p := MustNew(graph.Ring(7))
	for _, x := range []int{0, 1, p.Clock().K - 1} {
		cfg, err := p.UniformConfig(x)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Legitimate(cfg) {
			t.Errorf("uniform config at %d should be in Γ₁", x)
		}
	}
	if _, err := p.UniformConfig(p.Clock().K); err == nil {
		t.Error("want error for out-of-domain uniform value")
	}
}

func TestSingleVertexDegenerate(t *testing.T) {
	t.Parallel()
	g := graph.MustNew("solo", 1, nil)
	p := MustNew(g)
	if got := SyncBound(g); got != 0 {
		t.Errorf("SyncBound(solo) = %d, want 0", got)
	}
	initial := sim.Config[int]{p.Clock().Reset()}
	rep, err := p.MeasureSync(initial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergenceSteps != 0 {
		t.Errorf("solo vertex should never violate safety, got convergence %d", rep.ConvergenceSteps)
	}
}

// TestNewAtScale builds SSME on a 2¹⁷-ring, whose diameter 65536 is past
// any int16 distance and whose all-pairs distances would need tens of
// gigabytes: the clock size and privilege spacing only need diam(g).
func TestNewAtScale(t *testing.T) {
	t.Parallel()
	const n = 1 << 17
	p, err := New(graph.Ring(n))
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Graph().Diameter(); d != n/2 {
		t.Fatalf("diameter %d, want %d", d, n/2)
	}
	if want := (2*n-1)*(n/2+1) + 2; p.Clock().K != want {
		t.Errorf("clock K=%d, want (2n−1)(diam+1)+2 = %d", p.Clock().K, want)
	}
}
