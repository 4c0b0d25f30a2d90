package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// annot.go indexes the demi-vet source annotations:
//
//	//demi:nonalloc [rationale]       on a function: it must not allocate,
//	                                  directly or transitively (indexed
//	                                  with the declarations, load.go).
//	//demi:stateguard [rationale]     on a struct field: the field may not
//	                                  be written on any path that returns a
//	                                  non-nil error (complete-or-error).
//	//demi:carrier [rationale]        on a struct type: its exported fields
//	                                  are sanctioned transfer records for
//	                                  tracked values (SGArray, QEvent), not
//	                                  capability escapes.
//
// Grammar: the marker must start the comment line; anything after it on
// the same line is free-form rationale.

// demiMarker scans a comment group for a //demi:<name> line, returning the
// rationale after the marker ("" when the marker stands alone) and whether
// it was found.
func demiMarker(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "demi:"+name) {
			continue
		}
		rest := text[len("demi:"+name):]
		if rest == "" || strings.HasPrefix(rest, " ") {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// annotIndex scans (or, after fixture loads, extends) the annotation
// indexes over every loaded package. Like index(), it is incremental and
// must only run single-threaded (Precompute calls it).
func (m *Module) annotIndex() {
	s := m.summaryState()
	for ; s.annotIndexed < len(m.Pkgs); s.annotIndexed++ {
		p := m.Pkgs[s.annotIndexed]
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.GenDecl); ok {
					m.indexTypeAnnotations(s, p, d)
				}
			}
		}
	}
}

func (m *Module) indexTypeAnnotations(s *summaries, p *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		// A sole type's doc comment attaches to the GenDecl; grouped
		// (parenthesized) types carry their own.
		doc := ts.Doc
		if doc == nil && len(d.Specs) == 1 {
			doc = d.Doc
		}
		if _, ok := demiMarker(doc, "carrier"); ok {
			if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
				s.carriers[tn] = true
			}
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			_, inDoc := demiMarker(field.Doc, "stateguard")
			_, inLine := demiMarker(field.Comment, "stateguard")
			if !inDoc && !inLine {
				continue
			}
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					s.guarded[v] = true
				}
			}
		}
	}
}

// IsGuardedField reports whether v is a //demi:stateguard struct field.
// Only valid after Precompute.
func (m *Module) IsGuardedField(v *types.Var) bool {
	return m.sums != nil && m.sums.guarded[v]
}

// HasGuardedFields reports whether any //demi:stateguard field is indexed
// (lets the stateguard analyzer skip modules without annotations).
func (m *Module) HasGuardedFields() bool {
	return m.sums != nil && len(m.sums.guarded) > 0
}

// IsCarrier reports whether the named type is annotated //demi:carrier.
// Only valid after Precompute.
func (m *Module) IsCarrier(tn *types.TypeName) bool {
	return m.sums != nil && m.sums.carriers[tn]
}
