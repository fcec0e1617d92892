// Command hlquery answers exact distance queries against a prebuilt
// index, in one of two modes:
//
//   - one-shot: hlquery -graph g.hwg -index g.hwg.idx -s 12 -t 34
//   - REPL: hlquery -graph g.hwg -index g.hwg.idx  (reads "s t" lines from stdin)
//
// To serve queries over HTTP or the binary protocol, use hlserve.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"highway"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hlquery:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hlquery", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "binary graph file (required)")
		indexPath = fs.String("index", "", "index file (default: graph path + .idx)")
		s         = fs.Int("s", -1, "one-shot: source vertex")
		t         = fs.Int("t", -1, "one-shot: target vertex")
		stats     = fs.Bool("stats", false, "print index format and statistics, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := highway.LoadGraph(*graphPath)
	if err != nil {
		return err
	}
	ip := *indexPath
	if ip == "" {
		ip = *graphPath + ".idx"
	}
	// Any registered method's index loads transparently: the file's
	// method tag selects the decoder (hl for untagged/legacy files).
	ix, err := highway.LoadIndexAny(ip, g)
	if err != nil {
		return err
	}

	switch {
	case *stats:
		st := ix.Stats()
		fmt.Printf("index: %s\nmethod: %s\nstats: %s\n", ip, st.Method, st)
		// Capability discovery: which optional execution surfaces this
		// method's searchers offer (vectorized batch, source-to-many,
		// online insertion) — the same probe the serving layer uses.
		fmt.Printf("capabilities: %s\n", highway.IndexCapabilities(ix))
		if hl, ok := ix.(*highway.Index); ok {
			// hl files exist in two formats; surface which one (hlbuild
			// migrate rewrites between them) and the real footprint. The
			// format IS the file magic — no need to re-decode the index.
			format, err := indexFileFormat(ip)
			if err != nil {
				return err
			}
			fmt.Printf("format: %s\nmemory: %d bytes\n", format, hl.ActualBytes())
		}
		return nil
	case *s >= 0 && *t >= 0:
		if err := checkVertex(g, *s); err != nil {
			return err
		}
		if err := checkVertex(g, *t); err != nil {
			return err
		}
		return oneShot(ix, int32(*s), int32(*t))
	default:
		return repl(ix, g)
	}
}

// indexFileFormat maps the index file's magic to its format name
// without decoding the file a second time (LoadIndexAny already
// validated it in full).
func indexFileFormat(path string) (highway.IndexFormat, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return 0, err
	}
	if string(magic[:]) == "HWLIDX01" {
		return highway.IndexFormatV1, nil
	}
	return highway.IndexFormatV2, nil
}

// checkVertex validates an int vertex id before it is narrowed to
// int32: ids beyond int32 must be rejected, not silently wrapped.
func checkVertex(g *highway.Graph, v int) error {
	if v < 0 || v > math.MaxInt32 {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, g.NumVertices())
	}
	return g.CheckVertex(int32(v))
}

func oneShot(ix highway.DistanceIndex, s, t int32) error {
	start := time.Now()
	d := ix.Distance(s, t)
	fmt.Printf("d(%d,%d) = %d  (%s)\n", s, t, d, time.Since(start))
	return nil
}

func repl(ix highway.DistanceIndex, g *highway.Graph) error {
	sr := ix.NewSearcher()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("enter queries as: s t   (EOF to quit)")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			fmt.Println("want two vertex ids")
			continue
		}
		s, err1 := strconv.Atoi(fields[0])
		t, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil ||
			checkVertex(g, s) != nil || checkVertex(g, t) != nil {
			fmt.Printf("bad query %q\n", sc.Text())
			continue
		}
		start := time.Now()
		d := sr.Distance(int32(s), int32(t))
		fmt.Printf("%d  (%s)\n", d, time.Since(start))
	}
	return sc.Err()
}
