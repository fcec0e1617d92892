package serve

// Failpoint site names for the serving tier (see internal/failpoint for
// the arming API and DESIGN.md "Failure modes & degraded operation" for
// what each site is meant to break). Exported so tests in other
// packages — the hlclient resilience tests, the chaos harness — can arm
// them without string drift.
const (
	// FPWALAppend fires before the batch's bytes are written: the whole
	// batch fails cleanly, nothing reaches the file.
	FPWALAppend = "wal.append"
	// FPWALAppendShort simulates a torn write: roughly half the batch's
	// bytes reach the file before the error, exercising the
	// truncate-back-to-last-acknowledged-record repair path.
	FPWALAppendShort = "wal.append.short"
	// FPWALSync fires in place of the post-append fsync, and is also
	// evaluated by the degraded-mode recovery probe — arming it with a
	// persistent error holds the server in degraded read-only mode.
	FPWALSync = "wal.sync"
	// FPWALCompact fires at the start of CompactTo; the old log stays
	// intact.
	FPWALCompact = "wal.compact"
	// FPSnapshotWrite fires at the start of writeSnapshot, failing the
	// persist step of a checkpoint: the log is left uncompacted.
	FPSnapshotWrite = "serve.snapshot.write"
	// FPBinWrite fires before each binary-listener frame write,
	// simulating a broken client connection mid-response.
	FPBinWrite = "serve.bin.write"
	// FPQuery fires once per query request at searcher checkout, inside
	// the admission gate's hold. Its error (if any) is discarded — arm
	// it with a delay action to simulate slow queries, which is how the
	// overload tests make admitted requests hold budget long enough for
	// the gate to observably shed.
	FPQuery = "serve.query"
)
