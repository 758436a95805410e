package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/uncertain"
)

// This experiment is not in the paper: it measures the write path of a
// file-backed index under simulated page latency, sweeping the group-commit
// size. At group size 1 (the baseline, and the pre-group default) every
// insert or delete publishes its own epoch — a data-page flush, dirty node
// write-backs and a metadata write per operation, each charged the page
// latency. Grouping amortizes all of that across the group: one durable
// boundary per G operations and at most one shadow relocation per node per
// group (a delete never touches the data file). The trade-off is
// durability granularity — a crash loses at most the open group's tail,
// never a committed prefix.
//
// Each row also measures the writer with concurrent snapshot readers (the
// group's epoch publishes atomically, so readers never see a partial
// group), and then verifies the background reclaimer drains every retired
// page while the writer idles — no explicit Flush or Reclaim, just the
// reclaimer's ticks.

// WritePathRow is one group-size sample of the write-path sweep.
type WritePathRow struct {
	// GroupSize is Config.GroupCommitOps for this row; 1 is the per-op
	// commit baseline.
	GroupSize int
	// Ops is how many mutations (inserts + deletes) the timed solo phase
	// performed.
	Ops int
	// OpsPerSec is solo writer throughput (no concurrent readers).
	OpsPerSec float64
	// Speedup is OpsPerSec relative to the GroupSize = 1 baseline.
	Speedup float64
	// OpsPerSecUnderReaders is writer throughput while snapshot readers
	// query concurrently.
	OpsPerSecUnderReaders float64
	// ReaderQPS is the readers' aggregate query throughput during that
	// same window.
	ReaderQPS float64
	// PendingAfterIdle is the garbage (pages + epochs) still pending after
	// the idle-drain window — 0 when the background reclaimer kept up,
	// which is the acceptance condition.
	PendingAfterIdle int
	// GC is the epoch collector's health report at the end of the row.
	GC uncertain.GCInfo
}

// writePathSoloOps is the mutation count of the timed solo phase (plus one
// delete per four inserts; see writePathOps).
const writePathSoloOps = 128

// writePathReaderN is how many concurrent snapshot readers phase B runs.
const writePathReaderN = 4

// writePathDrainWindow bounds how long the idle-drain phase waits for the
// background reclaimer to drain all pending garbage.
const writePathDrainWindow = 5 * time.Second

// WritePath sweeps the group-commit size over a file-backed Tree
// loaded with the LB dataset: solo writer throughput, writer + snapshot
// readers, then the reclaimer idle-drain check. groupSizes defaults to
// {1, 8, 32}; a leading 1 is enforced since Speedup is relative to it.
func WritePath(cfg Config, groupSizes []int) ([]WritePathRow, error) {
	cfg = cfg.withDefaults()
	if len(groupSizes) == 0 {
		groupSizes = []int{1, 8, 32}
	}
	if groupSizes[0] != 1 {
		groupSizes = append([]int{1}, groupSizes...)
	}
	out := cfg.Out
	fprintf(out, "Write path: group commit sweep (LB, file-backed, page latency %v, reclaimer 1ms ticks)\n",
		cfg.IOLatency)

	objects, queries := mixedWorkload(cfg)
	dir, err := os.MkdirTemp("", "utree-writepath")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []WritePathRow
	for _, g := range groupSizes {
		row, err := runWritePathRow(g, dir, cfg, objects, queries)
		if err != nil {
			return nil, fmt.Errorf("writepath group=%d: %w", g, err)
		}
		if len(rows) > 0 {
			row.Speedup = row.OpsPerSec / rows[0].OpsPerSec
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
		fprintf(out, "  group=%-3d %8.1f ops/s  %5.2fx  (with readers: %7.1f ops/s, %7.1f q/s; pending after idle %d; reclaimed %d pages)\n",
			row.GroupSize, row.OpsPerSec, row.Speedup,
			row.OpsPerSecUnderReaders, row.ReaderQPS,
			row.PendingAfterIdle, row.GC.ReclaimedPages)
	}
	return rows, nil
}

// runWritePathRow measures one group size on a fresh file-backed tree.
func runWritePathRow(g int, dir string, cfg Config,
	objects map[int64]uncertain.PDF, queries []uncertain.RangeQuery) (WritePathRow, error) {
	row := WritePathRow{GroupSize: g}
	lat := &Latency{}
	idx, err := uncertain.NewTree(uncertain.Config{
		WrapStore:       lat.Wrap,
		Dimensions:      dataset.LB.Dim(),
		ExactRefinement: true,
		Seed:            cfg.Seed,
		// A small PCR catalog keeps per-insert PCR precomputation (pure
		// CPU, identical at every group size) from drowning the page
		// latency this sweep measures: at the paper's m = 15 the catalog
		// integrations alone cost several ms per insert — more than the
		// entire amortized I/O of a grouped op.
		CatalogSize: 2,
		// A cache that covers the working set isolates the write path: what
		// remains latency-bound is exactly what grouping amortizes (the
		// per-epoch data flush, dirty node write-backs and metadata write),
		// not descent read misses every row pays identically.
		BufferPages:       256,
		Path:              filepath.Join(dir, fmt.Sprintf("wp-%d.utree", g)),
		GroupCommitOps:    g,
		ReclaimInterval:   time.Millisecond,
		ReclaimPageBudget: 64,
	})
	if err != nil {
		return row, err
	}
	closed := false
	defer func() {
		if !closed {
			idx.Close()
		}
	}()

	// Build at zero latency; arm the measured value afterwards.
	if err := idx.BulkLoad(objects); err != nil {
		return row, err
	}
	if err := idx.Flush(); err != nil {
		return row, err
	}
	lat.Arm(cfg.IOLatency)

	// Phase A: solo writer. The Flush inside the window seals the open
	// group's tail, so every row pays for full durability of every op.
	start := time.Now()
	ops, err := writePathOps(idx, 2_000_000, writePathSoloOps)
	if err != nil {
		return row, err
	}
	if err := idx.Flush(); err != nil {
		return row, err
	}
	elapsed := time.Since(start)
	row.Ops = ops
	row.OpsPerSec = float64(ops) / elapsed.Seconds()

	// Phase B: the same writer with concurrent snapshot readers. Group
	// epochs publish atomically, so readers only ever see committed group
	// boundaries.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerQueries atomic.Int64
	readerErrs := make([]error, writePathReaderN)
	for r := 0; r < writePathReaderN; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i*writePathReaderN+r)%len(queries)]
				if _, _, err := idx.Search(context.Background(), q.Rect, q.Prob); err != nil {
					readerErrs[r] = err
					return
				}
				readerQueries.Add(1)
			}
		}(r)
	}
	startB := time.Now()
	opsB, err := writePathOps(idx, 3_000_000, writePathSoloOps/2)
	elapsedB := time.Since(startB)
	close(stop)
	wg.Wait()
	if err != nil {
		return row, err
	}
	if err := firstErr(readerErrs); err != nil {
		return row, fmt.Errorf("snapshot reader: %w", err)
	}
	row.OpsPerSecUnderReaders = float64(opsB) / elapsedB.Seconds()
	row.ReaderQPS = float64(readerQueries.Load()) / elapsedB.Seconds()

	// Idle drain: latency off, writer idle, no Flush and no explicit
	// Reclaim — pending garbage must drain through the background
	// reclaimer's ticks alone. The empty WriteBatch seals the open group's
	// tail as an epoch (its commit defers draining to the reclaimer);
	// without it the tail's retired pages would legitimately never drain.
	lat.Arm(0)
	if err := idx.WriteBatch(func(uncertain.BatchWriter) error { return nil }); err != nil {
		return row, err
	}
	deadline := time.Now().Add(writePathDrainWindow)
	for {
		info := idx.GCInfo()
		row.PendingAfterIdle = info.PendingPages + info.PendingEpochs
		if row.PendingAfterIdle == 0 || time.Now().After(deadline) {
			row.GC = info
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := idx.CheckInvariants(); err != nil {
		return row, fmt.Errorf("invariants after write-path row: %w", err)
	}
	closed = true
	return row, idx.Close()
}

// writePathOps is the writer stream of the sweep: insert a fresh object,
// delete every fourth — deletes retire the leaf pages they rewrite.
// Returns the mutation count performed.
func writePathOps(idx uncertain.Index, baseID int64, n int) (int, error) {
	rng := rand.New(rand.NewSource(baseID))
	ops := 0
	for i := 0; i < n; i++ {
		id := baseID + int64(i)
		center := uncertain.Pt(
			250+rng.Float64()*(dataset.Domain-500),
			250+rng.Float64()*(dataset.Domain-500))
		if err := idx.Insert(id, uncertain.UniformCircle(center, 250)); err != nil {
			return ops, err
		}
		ops++
		if i%4 == 3 {
			if err := idx.Delete(id); err != nil {
				return ops, err
			}
			ops++
		}
	}
	return ops, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
