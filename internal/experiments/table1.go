package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pagefile"
)

// Table1Row is one dataset row of Table 1 (index sizes in bytes).
type Table1Row struct {
	Dataset    dataset.Name
	UPCRBytes  int64
	UTreeBytes int64
	// Fanouts explain the size gap (Section 6.3's discussion).
	UTreeLeafFanout, UTreeInnerFanout int
	UPCRLeafFanout, UPCRInnerFanout   int
}

// Table1 reproduces Table 1: the space consumption of U-PCR (m = 9/9/10)
// versus the U-tree (m = 15) on the three datasets. The paper's absolute
// numbers (e.g. 11.9M vs 5.0M on LB) scale with the dataset; the invariant
// is the ratio, ≈ 2.4–2.8× in the paper, driven by fanout.
//
// The comparison is no longer like for like: U-PCR entries hold exact PCR
// faces at 8 bytes a value, while a U-tree leaf entry of an object with a
// shape — every object here — holds no coefficient at all, its CFBs being
// its shape's translated (core.compactSize; README "Leaf layout"), and an
// unkeyed one holds them at 4 bytes (core.entrySizes). At -scale 0.05 the
// ratio is 7.33 / 7.73 / 9.14 on LB / CA / Aircraft; with every entry full
// and 4-byte coefficients it was 3.11 / 3.23 / 3.59, and with 8-byte
// coefficients on both sides, the paper's per-object layout, 2.04 / 2.00 /
// 2.15.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table1Row
	out := cfg.Out
	fprintf(out, "Table 1: size comparison (bytes, index pages only)\n")
	fprintf(out, "%10s %14s %14s %8s\n", "dataset", "U-PCR", "U-tree", "ratio")
	for _, name := range dataset.All() {
		var row Table1Row
		row.Dataset = name
		for _, kind := range []core.Kind{core.UPCR, core.UTree} {
			t, _, err := buildTree(name, kind, paperCatalog(name, kind), cfg)
			if err != nil {
				return nil, err
			}
			pages, err := t.IndexPages()
			if err != nil {
				return nil, err
			}
			bytes := int64(pages) * pagefile.PageSize
			if kind == core.UPCR {
				row.UPCRBytes = bytes
				row.UPCRLeafFanout, row.UPCRInnerFanout = t.Fanout()
			} else {
				row.UTreeBytes = bytes
				row.UTreeLeafFanout, row.UTreeInnerFanout = t.Fanout()
			}
		}
		rows = append(rows, row)
		fprintf(out, "%10s %14d %14d %8.2f\n",
			name, row.UPCRBytes, row.UTreeBytes,
			float64(row.UPCRBytes)/float64(row.UTreeBytes))
	}
	return rows, nil
}
