package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"highway/internal/method"
	"highway/internal/workload"
)

// batchChunk is the unit of work in the batch pipeline: enough pairs to
// amortize channel hops, small enough to keep all workers busy near the
// end of the stream.
const batchChunk = 1024

// BatchStats summarizes one RunBatch execution.
type BatchStats struct {
	Pairs   int64
	Elapsed time.Duration
}

// QPS returns the observed throughput in queries per second.
func (b BatchStats) QPS() float64 {
	if b.Elapsed <= 0 {
		return 0
	}
	return float64(b.Pairs) / b.Elapsed.Seconds()
}

func (b BatchStats) String() string {
	return fmt.Sprintf("%d pairs in %s (%.0f qps)", b.Pairs, b.Elapsed, b.QPS())
}

// RunBatch streams "s t" lines from r through a pool of workers (0 =
// GOMAXPROCS) and writes one distance per line to w, in input order.
// It is the high-throughput offline mode: the same searcher pool as the
// HTTP API without per-request dispatch.
func (s *Server) RunBatch(r io.Reader, w io.Writer, workers int) (BatchStats, error) {
	return s.runPipeline(w, workers, func(emit func(workload.Pair) error) error {
		return workload.ReadPairs(r, int(s.snap.Load().n), emit)
	})
}

// batchJob carries one chunk through the pipeline. done is buffered so a
// worker never blocks on a slow writer.
type batchJob struct {
	pairs []workload.Pair
	done  chan []int32
}

// runPipeline fans chunks of the source stream out to workers and writes
// results in input order: source -> work queue -> workers (one Searcher
// each) -> sequenced writer. Output order is preserved by also sending
// each job to an order queue the writer drains in sequence.
func (s *Server) runPipeline(w io.Writer, workers int, source func(emit func(workload.Pair) error) error) (BatchStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	work := make(chan batchJob, workers)
	order := make(chan batchJob, 4*workers)

	for i := 0; i < workers; i++ {
		go func() {
			// Worker-local pair buffer: workload.Pair chunks are repacked
			// into the [s,t] shape the batch executor takes, so chunks
			// with repeated sources get the vectorized path.
			var pbuf [][2]int32
			for job := range work {
				if cap(pbuf) < len(job.pairs) {
					pbuf = make([][2]int32, len(job.pairs))
				}
				pbuf = pbuf[:len(job.pairs)]
				for i, p := range job.pairs {
					pbuf[i] = [2]int32{p.S, p.T}
				}
				sn, sr := s.acquire()
				out := method.DistanceBatch(sr, pbuf, make([]int32, len(job.pairs)))
				s.release(sn, sr)
				job.done <- out
			}
		}()
	}

	// Producer: chunk the source and feed both queues. A failed writer
	// flips aborted, and the producer stops the source at the next pair
	// instead of burning CPU on distances nobody will read.
	var aborted atomic.Bool
	srcErr := make(chan error, 1)
	go func() {
		defer close(work)
		defer close(order)
		chunk := make([]workload.Pair, 0, batchChunk)
		flush := func() {
			job := batchJob{pairs: chunk, done: make(chan []int32, 1)}
			work <- job
			order <- job
			chunk = make([]workload.Pair, 0, batchChunk)
		}
		err := source(func(p workload.Pair) error {
			if aborted.Load() {
				return errWriteAborted
			}
			chunk = append(chunk, p)
			if len(chunk) == batchChunk {
				flush()
			}
			return nil
		})
		// Flush the partial chunk even on error: the pairs in it parsed
		// before the failure and belong in the output, so a bad line
		// truncates output at the bad line, not at a chunk boundary.
		if len(chunk) > 0 {
			flush()
		}
		srcErr <- err
	}()

	// Writer: drain jobs in submission order.
	bw := bufio.NewWriterSize(w, 1<<16)
	var stats BatchStats
	var writeErr error
	buf := make([]byte, 0, 12)
	for job := range order {
		out := <-job.done
		if writeErr != nil {
			continue // keep draining so workers and producer can finish
		}
		for _, d := range out {
			buf = strconv.AppendInt(buf[:0], int64(d), 10)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				writeErr = err
				aborted.Store(true)
				break
			}
			stats.Pairs++ // only pairs that actually reached the writer
		}
	}
	if writeErr == nil {
		writeErr = bw.Flush()
	}
	stats.Elapsed = time.Since(start)
	srcE := <-srcErr
	if errors.Is(srcE, errWriteAborted) {
		srcE = nil // an artifact of the abort, not a source failure
	}
	return stats, errors.Join(srcE, writeErr)
}

// errWriteAborted is the sentinel the producer uses to stop the source
// after the writer has already failed; it never escapes runPipeline.
var errWriteAborted = errors.New("serve: output writer failed")
