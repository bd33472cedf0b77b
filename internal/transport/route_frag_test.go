package transport

import (
	"errors"
	"fmt"
	"testing"
)

// TestFragIndexDeterministic pins the dentry-fragment hash: every table
// replica must route a dentry to the same fragment, and single-way
// splits collapse to fragment 0.
func TestFragIndexDeterministic(t *testing.T) {
	if FragIndex("anything", 1) != 0 || FragIndex("anything", 0) != 0 {
		t.Errorf("ways<=1 must map to fragment 0")
	}
	for _, name := range []string{"", "a", "file.0001", "ckpt"} {
		for ways := 2; ways <= 8; ways++ {
			i, j := FragIndex(name, ways), FragIndex(name, ways)
			if i != j {
				t.Errorf("FragIndex(%q,%d) unstable: %d vs %d", name, ways, i, j)
			}
			if i < 0 || i >= ways {
				t.Errorf("FragIndex(%q,%d) = %d out of range", name, ways, i)
			}
		}
	}
	// Distinct names should spread at least a little: not all on one frag.
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[FragIndex(fmt.Sprintf("file.%04d", i), 4)] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 names hashed onto %d fragment(s), want spread", len(seen))
	}
}

// TestSplitDirRouting pins dirfrag routing semantics: paths strictly
// under a split directory route by dentry hash, the directory itself and
// unrelated paths still route by subtree placement, and fragment cells
// get their own heat key.
func TestSplitDirRouting(t *testing.T) {
	tb := NewTable()
	tb.Place("/hot", 1)
	tb.SplitDir("/hot", []int{1, 2, 3})

	if got := tb.RankFor("/hot"); got != 1 {
		t.Errorf("RankFor(/hot) = %d, want placed rank 1", got)
	}
	if got := tb.RankFor("/cold/x"); got != 0 {
		t.Errorf("RankFor(/cold/x) = %d, want 0", got)
	}
	want := []int{1, 2, 3}[FragIndex("child", 3)]
	if got := tb.RankFor("/hot/child"); got != want {
		t.Errorf("RankFor(/hot/child) = %d, want frag rank %d", got, want)
	}
	// Deeper paths hash by the first component below the split dir.
	if got := tb.RankFor("/hot/child/deep/er"); got != want {
		t.Errorf("RankFor(/hot/child/deep/er) = %d, want frag rank %d", got, want)
	}
	// Every entry of the split directory routes by its own name's hash.
	for _, name := range []string{"a", "b", "file.0001", "ckpt"} {
		if got, w := tb.RankFor("/hot"+"/"+name), []int{1, 2, 3}[FragIndex(name, 3)]; got != w {
			t.Errorf("RankFor(/hot/%s) = %d, want frag rank %d", name, got, w)
		}
	}
	wantCell := fmt.Sprintf("/hot#%d", FragIndex("child", 3))
	if got := tb.SubtreeFor("/hot/child"); got != wantCell {
		t.Errorf("SubtreeFor(/hot/child) = %q, want %q", got, wantCell)
	}

	// CopyFrom replicates splits; removing the split restores placement.
	rep := NewTable()
	rep.CopyFrom(tb)
	if got := rep.RankFor("/hot/child"); got != want {
		t.Errorf("replica RankFor(/hot/child) = %d, want %d", got, want)
	}
	tb.SplitDir("/hot", nil)
	if got := tb.RankFor("/hot/child"); got != 1 {
		t.Errorf("after unsplit RankFor(/hot/child) = %d, want 1", got)
	}
	if rep.FragSplits() == nil {
		t.Errorf("replica lost its split copy")
	}
}

// TestPlacementDeeperThanSplitWins: a placed subtree below the split
// directory overrides the hash (the placement is the finer statement of
// ownership).
func TestPlacementDeeperThanSplitWins(t *testing.T) {
	tb := NewTable()
	tb.SplitDir("/hot", []int{0, 1})
	tb.Place("/hot/pinned", 3)
	if got := tb.RankFor("/hot/pinned/file"); got != 3 {
		t.Errorf("RankFor(/hot/pinned/file) = %d, want pinned rank 3", got)
	}
	if got := tb.SubtreeFor("/hot/pinned/file"); got != "/hot/pinned" {
		t.Errorf("SubtreeFor = %q, want /hot/pinned", got)
	}
}

// TestWrongRankError pins the redirect error type clients retry on.
func TestWrongRankError(t *testing.T) {
	frozen := &WrongRankError{Path: "/job", Epoch: 7, Frozen: true}
	moved := &WrongRankError{Path: "/job", Rank: 2, Epoch: 9}
	for _, err := range []error{frozen, moved} {
		wrapped := fmt.Errorf("rpc: %w", err)
		got, ok := IsRedirect(wrapped)
		if !ok || got != err {
			t.Errorf("IsRedirect(%v) = %v, %v", wrapped, got, ok)
		}
	}
	if _, ok := IsRedirect(errors.New("plain")); ok {
		t.Errorf("plain error classified as redirect")
	}
	if _, ok := IsRedirect(nil); ok {
		t.Errorf("nil classified as redirect")
	}
	if frozen.Error() == moved.Error() {
		t.Errorf("frozen and moved redirects should render differently")
	}
}
