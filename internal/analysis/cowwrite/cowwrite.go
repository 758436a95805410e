// Package cowwrite enforces the copy-on-write discipline introduced in
// PR 5: committed pages are byte-immutable, so every page mutation must
// flow through the blessed relocation/commit funnel — writeNode (which
// relocates committed nodes to shadow pages), writeMeta (the commit
// point), the buffer-pool write-back paths, and the data file's
// append-page flush. A Store.Write, BufferPool.Put, or MarkInPlace call anywhere
// else is a latent snapshot-isolation break that the runtime COW check
// would only catch when that exact path executes.
package cowwrite

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer flags page mutations outside the COW funnel.
var Analyzer = &framework.Analyzer{
	Name: "cowwrite",
	Doc: "flag Store.Write / BufferPool.Put / MarkInPlace calls outside the " +
		"allowlisted relocation/commit funnel (the COW discipline)",
	Run: run,
}

// funnel is the set of functions allowed to mutate pages directly:
// store wrappers delegating inward (Write, MarkInPlace), the node
// relocation and metadata commit funnels (writeNode, writeMeta), the
// buffer-pool write-back paths (insert, Flush), and the data file's
// append-page funnels (flushLocked, markInPlace) — the only in-place
// data-page writer, since records are write-once.
var funnel = map[string]bool{
	"Write":       true,
	"MarkInPlace": true,
	"writeNode":   true,
	"writeMeta":   true,
	"insert":      true,
	"Flush":       true,
	"flushLocked": true,
	"markInPlace": true,
}

// scope: within this repository the COW discipline governs the tree and
// the page store; fixture packages (non-repro paths) are always checked.
var scoped = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/pagefile": true,
}

func run(pass *framework.Pass) error {
	if path := pass.Pkg.Path(); strings.HasPrefix(path, "repro/") && !scoped[path] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || funnel[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || pass.TypesInfo.Selections[sel] == nil {
					return true // not a method/field selection
				}
				recv := namedName(pass.TypeOf(sel.X))
				switch sel.Sel.Name {
				case "Write":
					if isStoreType(recv) {
						pass.Reportf(call.Pos(),
							"page write (%s.Write) outside the COW funnel in %s: committed pages are immutable; route the mutation through writeNode/writeMeta or a flush funnel",
							recv, fd.Name.Name)
					}
				case "Put":
					if recv == "BufferPool" {
						pass.Reportf(call.Pos(),
							"BufferPool.Put outside the COW funnel in %s: dirtying a cached page bypasses copy-on-write relocation; go through writeNode",
							fd.Name.Name)
					}
				case "MarkInPlace":
					pass.Reportf(call.Pos(),
						"MarkInPlace outside the COW funnel in %s: only the metadata and append-page funnels may exempt a page from copy-on-write",
						fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}

// namedName returns the name of the (possibly pointed-to) named type.
func namedName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isStoreType matches the page-store naming convention: the Store
// interface itself and every wrapper implementation (FileStore,
// MemStore, VersionedStore, ChaosStore, RetryStore, ...).
func isStoreType(name string) bool {
	return name == "Store" || strings.HasSuffix(name, "Store")
}
