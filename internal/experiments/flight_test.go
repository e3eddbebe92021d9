package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// waitCtx closes waiting the first time a flight caller asks for its
// Done channel, which a joining caller does only once it blocks on the
// build: tests wait on that event instead of sleeping.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitCtx(ctx context.Context) *waitCtx {
	return &waitCtx{Context: ctx, waiting: make(chan struct{})}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// gatedBuild returns a build that signals started, then blocks until
// gate closes and returns (v, err); builds counts its runs.
func gatedBuild(builds *atomic.Int64, started, gate chan struct{}, v int, err error) func() (int, error) {
	return func() (int, error) {
		builds.Add(1)
		close(started)
		<-gate
		return v, err
	}
}

func TestFlightConcurrentCallersBuildOnce(t *testing.T) {
	var f flight[string, int]
	var builds atomic.Int64
	started, gate := make(chan struct{}), make(chan struct{})

	const callers = 8
	vals := make([]int, callers)
	outs := make([]flightOutcome, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], outs[0], _ = f.do(bg, "k", gatedBuild(&builds, started, gate, 42, nil))
	}()
	<-started
	for i := 1; i < callers; i++ {
		ctx := newWaitCtx(bg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			vals[i], outs[i], err = f.do(ctx, "k", func() (int, error) {
				builds.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
		<-ctx.waiting
	}
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d builds, want 1", callers, n)
	}
	for i := range vals {
		want := flightJoined
		if i == 0 {
			want = flightBuilt
		}
		if vals[i] != 42 || outs[i] != want {
			t.Errorf("caller %d = (%d, %v), want (42, %v)", i, vals[i], outs[i], want)
		}
	}
	if v, out, err := f.do(bg, "k", nil); v != 42 || out != flightMemo || err != nil {
		t.Errorf("later call = (%d, %v, %v), want the memoized 42", v, out, err)
	}
}

func TestFlightErrorReachesWaitersOnly(t *testing.T) {
	var f flight[string, int]
	var builds atomic.Int64
	started, gate := make(chan struct{}), make(chan struct{})
	boom := errors.New("boom")

	var builderErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, builderErr = f.do(bg, "k", gatedBuild(&builds, started, gate, 0, boom))
	}()
	<-started
	ctx := newWaitCtx(bg)
	var waiterErr error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, _, waiterErr = f.do(ctx, "k", nil)
	}()
	<-ctx.waiting
	close(gate)
	<-done
	<-waited
	if !errors.Is(builderErr, boom) || !errors.Is(waiterErr, boom) {
		t.Fatalf("builder err %v, waiter err %v, want both %v", builderErr, waiterErr, boom)
	}

	v, out, err := f.do(bg, "k", func() (int, error) {
		builds.Add(1)
		return 7, nil
	})
	if v != 7 || out != flightBuilt || err != nil || builds.Load() != 2 {
		t.Errorf("call after a failed build = (%d, %v, %v) after %d builds, want a fresh build of 7",
			v, out, err, builds.Load())
	}
}

func TestFlightCanceledWaiterLeavesBuildRunning(t *testing.T) {
	var f flight[string, int]
	var builds atomic.Int64
	started, gate := make(chan struct{}), make(chan struct{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		f.do(bg, "k", gatedBuild(&builds, started, gate, 5, nil))
	}()
	<-started
	cctx, cancel := context.WithCancel(bg)
	ctx := newWaitCtx(cctx)
	var waiterErr error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, _, waiterErr = f.do(ctx, "k", nil)
	}()
	<-ctx.waiting
	cancel()
	<-waited
	if !errors.Is(waiterErr, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", waiterErr)
	}

	close(gate)
	<-done
	if v, out, err := f.do(bg, "k", nil); v != 5 || out != flightMemo || err != nil || builds.Load() != 1 {
		t.Errorf("after the build finished: (%d, %v, %v) with %d builds, want the memoized 5 from 1 build",
			v, out, err, builds.Load())
	}
}

func TestFlightPanicReleasesWaiters(t *testing.T) {
	var f flight[string, int]
	started, gate := make(chan struct{}), make(chan struct{})

	var recovered any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recovered = recover() }()
		f.do(bg, "k", func() (int, error) {
			close(started)
			<-gate
			panic("build bug")
		})
	}()
	<-started
	ctx := newWaitCtx(bg)
	var waiterErr error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, _, waiterErr = f.do(ctx, "k", nil)
	}()
	<-ctx.waiting
	close(gate)
	<-waited
	<-done
	if !errors.Is(waiterErr, errBuildPanicked) {
		t.Errorf("waiter of a panicking build got %v, want errBuildPanicked", waiterErr)
	}
	if recovered != "build bug" {
		t.Errorf("builder recovered %v, want the build's panic to continue in its goroutine", recovered)
	}
	if v, out, err := f.do(bg, "k", func() (int, error) { return 3, nil }); v != 3 || out != flightBuilt || err != nil {
		t.Errorf("call after a panicked build = (%d, %v, %v), want a fresh build of 3", v, out, err)
	}
}
