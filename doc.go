// Package repro reproduces the U-tree of Tao, Cheng, Xiao, Ngai, Kao,
// and Prabhakar ("Indexing Multi-Dimensional Uncertain Data with
// Arbitrary Probability Density Functions", VLDB 2005): a disk-based
// index over uncertain objects that answers probability-threshold range
// queries via probabilistically constrained regions (PCRs).
//
// The root package holds only cross-cutting benchmarks; the
// implementation lives in uncertain (public API), internal/core (the
// tree), internal/pagefile (the page store), and their siblings.
//
// # Paper-to-code map
//
// Each line names a notion of the paper and, after the arrow, the
// identifiers that implement it, as package path, then identifier or
// Type.Method. TestPaperMap fails when one of them no longer exists.
//
//	PCR o.pcr(p), Section 4.1                → internal/pcr.Compute, internal/pcr.PCRs
//	U-catalog p_1 … p_m, Section 4.2         → internal/pcr.Catalog, internal/pcr.UniformCatalog
//	Observation 1, prune on a PCR            → internal/pcr.FilterCatalogPCR
//	Observation 2, Rules 1–2 on the catalog  → internal/pcr.FilterCatalogPCR, internal/pcr.Catalog.SmallestGE, internal/pcr.Catalog.LargestLE
//	Observation 3, the rules on CFBs         → internal/pcr.Faces.Filter, internal/pcr.Faces.within, internal/pcr.Faces.meets
//	Observation 4, prune an inner entry      → internal/core.Tree.innerMeets, internal/core.Tree.boxAt, internal/core.innerReaches
//	cfb_out and cfb_in, Sections 4.3–4.4     → internal/pcr.CFB, internal/pcr.FitOut, internal/pcr.FitIn
//	U-PCR leaf entry, catalog PCRs           → internal/core.UPCR, internal/core.Tree.encodeLeafEntry
//	U-tree leaf entry, cfb_out and cfb_in    → internal/core.UTree, internal/core.Tree.encodeLeafEntry, internal/core.packedNode.cfbs
//	intermediate entry, e.MBR(p_j)           → internal/core.Tree.encodeInnerEntry, internal/core.Tree.nodeBoundary
//	ChooseSubtree and split, Section 5.3     → internal/core.Tree.chooseSubtree, internal/core.Tree.chooseSplit
//	prob-range query, Section 5.2            → internal/core.Snapshot.RangeQuery, uncertain.Tree.Search
//	leaf entry: filter once, then its record → internal/core.queryScratch.decide, internal/core.queryScratch.object, internal/core.packedNode.leafMBR
//	Equation 2, appearance probability       → internal/core.Tree.rangeQuery, internal/updf.PDF.ExactProb
//	Equation 3, the Monte Carlo estimate     → internal/updf.MonteCarloProb
//
// Where the code departs from the paper:
//
//	probability bound, replaces Rules 3–5    → internal/pcr.Faces.ProbBounds, internal/pcr.ProbBoundsPCR
//	marginal bounds, radial pair terms       → internal/pcr.marginal.read, internal/pcr.marginal.readShape, internal/pcr.marginal.decide, internal/pcr.marginal.pairs, internal/pcr.marginal.pairLower, internal/pcr.marginal.pairUpper
//	2-D ball corner masses, a knot table     → internal/pcr.quadTable, internal/pcr.Shape.quadrant, internal/pcr.quadrants, internal/updf.QuadrantTable, internal/updf.UniformBall.QuadrantMass
//	hull fit, replaces the simplex           → internal/pcr.convexHull, internal/pcr.hullFace, internal/pcr.fitMeeting
//	float32 CFBs, unkeyed entries only       → internal/pcr.CFB.quantise, internal/pcr.CFB.repairOut, internal/pcr.CFB.repairIn
//	keyed entry: id, address, MBR; no CFBs   → internal/core.compactSize, internal/core.packedNode.form, internal/pcr.Shape.Translate, internal/pcr.ShapeSlack
//	keyed ball: id, address, centre; no MBR  → internal/core.centreSize, internal/core.packedNode.leafMBR, internal/updf.Recentrer.MBRAt
//	shapes, one value fitted when made       → internal/pcr.NewShape, internal/pcr.Shape, internal/pcr.Shape.FilterMarginal, internal/pcr.Shape.table, internal/pcr.FilterMarginal, internal/core.appendShape
//	float32 intermediate boxes, rounded out  → internal/core.roundOut, internal/core.Tree.unionBoundary, internal/core.packedNode.box32
//	R*'s candidate cut in ChooseSubtree      → internal/core.chooseCut, internal/core.Tree.chooseSubtree
//	descent on the shapes' quantiles         → internal/core.innerReaches, internal/core.Tree.quantileBounds, internal/pcr.Shape.Reach, internal/pcr.Reaches, internal/pcr.Catalog.QuantileLevels
//	exact refinement, not Equation 3         → internal/updf.PDF.ExactProb, internal/updf.UniformBall.ExactProb, internal/updf.ConGauBall.ExactProb
//	leaf MBRs and U-PCR faces stay float64   → internal/core.entrySizes, internal/pcr.tail.face
//	Table 1, keyed entries hold no CFB       → internal/experiments.Table1, internal/core.centreSize, internal/core.compactSize
//	shape keys as computed, a full table     → internal/updf.PDF.ShapeKey, internal/core.shape
//
// What the index adds around the paper, each argued at its code:
//
//	records in leaf order, §5's grouping     → internal/core.Tree.BulkLoad, internal/core.runCutter.cut
//	pages before metadata, no fsync          → internal/core.Tree.Commit, internal/core.Tree.writeMeta
//	typed store errors, never retried        → uncertain.ErrChecksum, uncertain.ErrBadPage, internal/core.nodeReadErr
package repro
