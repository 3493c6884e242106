package timing

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/randnet"
	"repro/internal/rctree"
)

func hammerDesign(t *testing.T, seed int64, levels, width, nodes int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := randnet.DefaultDesignConfig(levels, width)
	cfg.Net = randnet.DefaultConfig(nodes)
	cfg.FaninMax = 3
	g, err := NewGraph(randnet.Design(rng, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkStealAnalyzeRaceHammer slams one shared Graph with concurrent
// work-stealing analyses at many worker counts (plus sequential
// interlopers), some above the design's widest level.
// Every goroutine must reproduce the baseline report bit for bit; run under
// -race this doubles as the scheduler's memory-visibility proof.
func TestWorkStealAnalyzeRaceHammer(t *testing.T) {
	g := hammerDesign(t, 99, 5, 3, 20)
	ctx := context.Background()
	base, err := g.Analyze(ctx, Options{Threshold: 0.6, Required: 500, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	goroutines := 8
	iters := 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opt := Options{Threshold: 0.6, Required: 500, Workers: 1 + w%5}
			if w%3 == 1 {
				opt.Workers = 6 + w
			}
			for it := 0; it < iters; it++ {
				rep, err := g.Analyze(ctx, opt)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(rep, base) {
					t.Errorf("worker %d iter %d: report diverged from baseline", w, it)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionForkRaceHammer exercises the documented fork concurrency
// contract under load: many forks of one parent Apply their own random edits
// and read their own reports concurrently, while the parent's state stays
// frozen throughout.
func TestSessionForkRaceHammer(t *testing.T) {
	g := hammerDesign(t, 7, 4, 3, 14)
	s, err := g.Session(context.Background(), Options{Threshold: 0.6, Required: 300})
	if err != nil {
		t.Fatal(err)
	}
	parentRep := s.Report() // memoize before the forks fan out
	parentGen := s.Gen()
	forks := 8
	editsPerFork := 12
	var wg sync.WaitGroup
	for w := 0; w < forks; w++ {
		f := s.Fork() // forked serially; Apply runs concurrently per contract
		wg.Add(1)
		go func(w int, f *Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			seq := 0
			for e := 0; e < editsPerFork; e++ {
				ed := randomEdit(rng, f, &seq)
				if _, err := f.Apply([]Edit{ed}); err != nil {
					continue
				}
				rep := f.Report()
				if len(rep.Endpoints) == 0 {
					t.Errorf("fork %d: empty endpoint table", w)
					return
				}
			}
			assertMatchesFull(t, f, f.required)
		}(w, f)
	}
	wg.Wait()
	if s.Gen() != parentGen || !reflect.DeepEqual(s.Report(), parentRep) {
		t.Fatal("fork edits leaked into the parent session")
	}
}

// TestArenaPropagateSeqZeroAlloc pins the steady-state hot path: once the
// arena state and scratch exist, a full sequential propagation performs zero
// heap allocations per run.
func TestArenaPropagateSeqZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	g := hammerDesign(t, 5, 4, 3, 24)
	da, err := g.arena()
	if err != nil {
		t.Fatal(err)
	}
	st := da.newState()
	var s rctree.Scratch
	ctx := context.Background()
	if err := da.propagateSeq(ctx, st, 0.6, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := da.propagateSeq(ctx, st, 0.6, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state propagation allocates %v times per run, want 0", allocs)
	}
}

// TestArenaPropScratchReuse checks that a propagation scratch recycled across
// runs (the benchmark/server steady state) keeps producing results identical
// to a fresh sequential pass, at two worker counts.
func TestArenaPropScratchReuse(t *testing.T) {
	g := hammerDesign(t, 31, 4, 2, 16)
	da, err := g.arena()
	if err != nil {
		t.Fatal(err)
	}
	want := da.newState()
	if err := da.propagateSeq(context.Background(), want, 0.55, &rctree.Scratch{}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		ps := da.newPropScratch(workers)
		st := da.newState()
		for run := 0; run < 3; run++ {
			if err := da.propagate(context.Background(), st, 0.55, workers, ps); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, want) {
				t.Fatalf("%d workers run %d: reused-scratch state diverged", workers, run)
			}
		}
	}
}

// TestArenaAnalyzeCanceled verifies the arena paths honor context
// cancellation, sequential and work-stealing.
func TestArenaAnalyzeCanceled(t *testing.T) {
	g := hammerDesign(t, 13, 4, 2, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := []Options{
		{Threshold: 0.5, Sequential: true},
		{Threshold: 0.5, Workers: 2},
		{Threshold: 0.5, Workers: 4},
	}
	for i, opt := range opts {
		if _, err := g.Analyze(ctx, opt); err == nil {
			t.Errorf("option set %d: canceled analysis succeeded", i)
		}
	}
}
