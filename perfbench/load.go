package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The load generator. It replaces internal/loadgen's closed-loop runner for
// this benchmark because the benchmark must (1) keep going after a
// failed request and count it, (2) time paced requests from their
// scheduled send, so a stall also charges the requests queued behind
// it, and (3) report how late the generator itself ran.

// phase is what one load phase measured.
type phase struct {
	lat  []time.Duration // per request: completion minus scheduled (paced) or actual (closed) send
	late []time.Duration // paced only: actual send minus scheduled send
	ok   int64           // requests that succeeded
	dur  time.Duration   // wall time of the phase
}

// requestFn issues request i of a phase on worker w and returns its
// error, which the load generator passes to the gate.
type requestFn func(w int, i int64) error

// paced runs an open-loop phase: requests are due at a fixed rate for
// dur, and workers goroutines (one connection each) take the next due
// request as soon as they are free. Each request is timed from when it
// was due, so a worker held up by a slow answer charges the wait to the
// requests queued behind it.
func paced(ctx context.Context, g *gate, rate float64, dur time.Duration, workers int, fn requestFn) phase {
	period := time.Duration(float64(time.Second) / rate)
	total := int64(dur / period)
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	per := make([]phase, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sl, err := newSleeper()
			if err != nil {
				g.fail("paced worker: %v", err)
				return
			}
			defer sl.close()
			p := &per[w]
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if err := sl.until(due); err != nil {
					g.fail("paced worker: %v", err)
					return
				}
				sent := time.Now()
				err := fn(w, i)
				done := time.Now()
				g.op(err)
				if err == nil {
					p.ok++
				}
				p.lat = append(p.lat, done.Sub(due))
				p.late = append(p.late, sent.Sub(due))
			}
		}(w)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// closed runs a closed-loop phase: workers goroutines each send their
// next request as soon as the previous one completes, for dur.
func closed(ctx context.Context, g *gate, dur time.Duration, workers int, fn requestFn) phase {
	start := time.Now()
	end := start.Add(dur)
	per := make([]phase, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &per[w]
			for ctx.Err() == nil {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				err := fn(w, next.Add(1)-1)
				g.op(err)
				if err == nil {
					p.ok++
				}
				p.lat = append(p.lat, time.Since(sent))
			}
		}(w)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

func merge(per []phase, dur time.Duration) phase {
	out := phase{dur: dur}
	for _, p := range per {
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
		out.ok += p.ok
	}
	return out
}

// sleeper waits until a point in time with microsecond precision. Go's
// timers round sub-millisecond sleeps up to a millisecond, far coarser
// than one request, and a sleeping system call would hold one of the
// process's two scheduler slots until the runtime reclaims it, up to
// 10 ms later. A timerfd read through the runtime's network poller has
// neither problem.
type sleeper struct {
	f   *os.File
	fd  uintptr // f's descriptor; f.Fd() would switch it to blocking mode
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until blocks until t.
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval (none), then value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
