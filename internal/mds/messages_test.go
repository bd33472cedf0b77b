package mds

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/runtime"
)

// TestMessageTable checks the one thing the message interface replaced
// four type switches with: every endpoint message type declared in the
// package answers for itself. The labels are the strings the old
// msgLabel switch returned — they show in -trace output and flight
// dumps — and a message type added without its methods fails here by
// name, because the set of types is read from the package source.
func TestMessageTable(t *testing.T) {
	golden := map[string]struct {
		msg   any
		label string
	}{
		"Request":         {&Request{}, "rpc.lookup"},
		"MergeMsg":        {&MergeMsg{}, "merge"},
		"MergeOpenMsg":    {&MergeOpenMsg{}, "merge.open"},
		"MergeChunkMsg":   {&MergeChunkMsg{}, "merge.chunk"},
		"MergeWaitMsg":    {&MergeWaitMsg{}, "merge.wait"},
		"MergeAbortMsg":   {&MergeAbortMsg{}, "merge.abort"},
		"DecoupleMsg":     {&DecoupleMsg{}, "decouple"},
		"RecoupleMsg":     {&RecoupleMsg{}, "recouple"},
		"ExportFreezeMsg": {&ExportFreezeMsg{}, "export.freeze"},
		"ExportSaveMsg":   {&ExportSaveMsg{}, "export.save"},
		"ExportReadMsg":   {&ExportReadMsg{}, "export.read"},
		"ExportCommitMsg": {&ExportCommitMsg{}, "export.commit"},
		"ExportAbortMsg":  {&ExportAbortMsg{}, "export.abort"},
		"ImportOpenMsg":   {&ImportOpenMsg{}, "import.open"},
		"ImportChunkMsg":  {&ImportChunkMsg{}, "import.chunk"},
		"ImportCommitMsg": {&ImportCommitMsg{}, "import.commit"},
		"ImportAbortMsg":  {&ImportAbortMsg{}, "import.abort"},
		"AttachMsg":       {&AttachMsg{}, "attach"},
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, f := range pkgs["mds"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && (ts.Name.Name == "Request" || strings.HasSuffix(ts.Name.Name, "Msg")) {
				declared = append(declared, ts.Name.Name)
			}
			return true
		})
	}
	sort.Strings(declared)
	var listed []string
	for name := range golden {
		listed = append(listed, name)
	}
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Fatalf("message types declared in the package:\n %v\nlisted in this test:\n %v", declared, listed)
	}

	labels := make(map[string]string)
	var refusing []string
	for name, g := range golden {
		m, ok := g.msg.(message)
		if !ok {
			t.Errorf("*%s does not implement message", name)
			continue
		}
		if got := m.label(); got != g.label || labelOf(g.msg) != got {
			t.Errorf("*%s label = %q (labelOf %q), want %q", name, got, labelOf(g.msg), g.label)
		}
		if other, dup := labels[m.label()]; dup {
			t.Errorf("*%s and *%s share the label %q", name, other, m.label())
		}
		labels[m.label()] = name

		// RouteOf is the type's Route field, or its Path field when it has
		// no Route, or empty when it has neither.
		want := ""
		v := reflect.ValueOf(g.msg).Elem()
		for _, field := range []string{"Path", "Route"} {
			if f := v.FieldByName(field); f.IsValid() && f.Kind() == reflect.String {
				f.SetString("")
			}
		}
		for _, field := range []string{"Route", "Path"} {
			if f := v.FieldByName(field); f.IsValid() && f.Kind() == reflect.String {
				f.SetString("/sub/tree")
				want = "/sub/tree"
				break
			}
		}
		if got := RouteOf(g.msg); got != want {
			t.Errorf("RouteOf(*%s) = %q, want %q", name, got, want)
		}

		if r, ok := g.msg.(refusable); ok {
			refusing = append(refusing, name)
			reply := reflect.ValueOf(r.refused(ErrShutdown)).Elem().FieldByName("Err").Interface()
			if reply != error(ErrShutdown) {
				t.Errorf("*%s refused reply carries %v", name, reply)
			}
		}
	}
	sort.Strings(refusing)
	if want := []string{"MergeMsg", "MergeOpenMsg", "Request"}; !reflect.DeepEqual(refusing, want) {
		t.Errorf("messages a frozen or foreign subtree bounces = %v, want %v", refusing, want)
	}
	if got := (&Request{Op: OpRename}).label(); got != "rpc.rename" {
		t.Errorf("rename request label = %q", got)
	}

	// Something that is not a message still gets a typed answer, a label
	// and no route.
	type stranger struct{}
	if got := labelOf(stranger{}); got != "msg.mds.stranger" {
		t.Errorf("label of a non-message = %q", got)
	}
	if got := RouteOf(stranger{}); got != "" {
		t.Errorf("route of a non-message = %q", got)
	}
	eng, s := newTestServer()
	run(t, eng, func(p runtime.Task) {
		r, ok := s.Post(p, stranger{}).(*Reply)
		if !ok || !errors.Is(r.Err, namespace.ErrInval) {
			t.Errorf("Post of a non-message = %#v, want a Reply with ErrInval", r)
		}
	})
}
