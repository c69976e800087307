package check

import (
	"strings"
	"testing"
)

// collect runs pred and returns the emitted details, tagged with the
// offending cluster, as "c<cluster>: <detail>" lines.
func collect(pred func(Emit)) []string {
	var out []string
	pred(func(cluster int, detail string) {
		out = append(out, strings.Join([]string{clusterTag(cluster), detail}, ": "))
	})
	return out
}

func clusterTag(c int) string {
	switch c {
	case 0:
		return "c0"
	case 1:
		return "c1"
	case 2:
		return "c2"
	case 3:
		return "c3"
	default:
		return "c?"
	}
}

// maskEntry builds an EntryView whose candidate set is the given cluster
// bitmask.
func maskEntry(dirty bool, owner int, mask uint) EntryView {
	return EntryView{Present: true, Dirty: dirty, Owner: owner, Sharers: maskSet(mask)}
}

// maskSet is a candidate set as a cluster bitmask.
type maskSet uint

func (m maskSet) IsSharer(c int) bool { return m&(1<<uint(c)) != 0 }

func TestSingleWriter(t *testing.T) {
	cases := []struct {
		name   string
		copies []Copy
		want   []string
	}{
		{name: "empty", copies: nil, want: nil},
		{name: "one shared", copies: []Copy{{Proc: 1, Cluster: 1, State: CopyShared}}, want: nil},
		{name: "many shared", copies: []Copy{
			{Proc: 0, Cluster: 0, State: CopyShared},
			{Proc: 1, Cluster: 1, State: CopyShared},
			{Proc: 2, Cluster: 2, State: CopyShared},
		}, want: nil},
		{name: "lone dirty", copies: []Copy{{Proc: 2, Cluster: 2, State: CopyDirty}}, want: nil},
		{name: "two dirty", copies: []Copy{
			{Proc: 0, Cluster: 0, State: CopyDirty},
			{Proc: 3, Cluster: 3, State: CopyDirty},
		}, want: []string{
			"c3: block dirty in procs 0 and 3 at once",
			"c3: proc 3 holds the block dirty while 1 other caches keep copies",
		}},
		{name: "dirty plus shared", copies: []Copy{
			{Proc: 1, Cluster: 1, State: CopyDirty},
			{Proc: 2, Cluster: 2, State: CopyShared},
		}, want: []string{
			"c1: proc 1 holds the block dirty while 1 other caches keep copies",
		}},
		{name: "three dirty", copies: []Copy{
			{Proc: 0, Cluster: 0, State: CopyDirty},
			{Proc: 1, Cluster: 1, State: CopyDirty},
			{Proc: 2, Cluster: 2, State: CopyDirty},
		}, want: []string{
			"c1: block dirty in procs 0 and 1 at once",
			"c2: block dirty in procs 1 and 2 at once",
			"c2: proc 2 holds the block dirty while 2 other caches keep copies",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(func(emit Emit) { SingleWriter(tc.copies, emit) })
			assertDetails(t, got, tc.want)
		})
	}
}

func TestCoverage(t *testing.T) {
	cases := []struct {
		name   string
		home   int
		copies []Copy
		entry  EntryView
		want   []string
	}{
		{name: "home copy needs no entry", home: 0,
			copies: []Copy{{Proc: 0, Cluster: 0, State: CopyDirty}},
			entry:  EntryView{}, want: nil},
		{name: "remote copy no entry", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyShared}},
			entry:  EntryView{},
			want:   []string{"c1: proc 1 (cluster 1) caches the block but the home directory has no entry"}},
		{name: "remote copy covered as sharer", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyShared}},
			entry:  maskEntry(false, -1, 0b10), want: nil},
		{name: "remote copy covered by over-recording superset", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyShared}},
			entry:  maskEntry(false, -1, 0b1110), want: nil},
		{name: "remote copy uncovered", home: 0,
			copies: []Copy{{Proc: 2, Cluster: 2, State: CopyShared}},
			entry:  maskEntry(false, -1, 0b10),
			want:   []string{"c2: proc 2 (cluster 2) caches the block but is neither a recorded sharer nor the dirty owner"}},
		{name: "remote dirty recorded owner", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyDirty}},
			entry:  maskEntry(true, 1, 0), want: nil},
		{name: "remote dirty recorded only as sharer", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyDirty}},
			entry:  maskEntry(false, -1, 0b10),
			want:   []string{"c1: proc 1 holds the block dirty but the directory does not record cluster 1 as owner"}},
		{name: "remote dirty wrong owner", home: 0,
			copies: []Copy{{Proc: 2, Cluster: 2, State: CopyDirty}},
			entry:  maskEntry(true, 1, 0),
			want: []string{
				"c2: proc 2 (cluster 2) caches the block but is neither a recorded sharer nor the dirty owner",
				"c2: proc 2 holds the block dirty but the directory does not record cluster 2 as owner",
			}},
		{name: "mixed home and remote", home: 1,
			copies: []Copy{
				{Proc: 1, Cluster: 1, State: CopyShared},
				{Proc: 2, Cluster: 2, State: CopyShared},
			},
			entry: maskEntry(false, -1, 0b100), want: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(func(emit Emit) { Coverage(tc.home, tc.copies, tc.entry, emit) })
			assertDetails(t, got, tc.want)
		})
	}
}

func TestRecallClean(t *testing.T) {
	cases := []struct {
		name   string
		home   int
		copies []Copy
		entry  EntryView
		want   []string
	}{
		{name: "no survivors", home: 0, copies: nil, entry: EntryView{}, want: nil},
		{name: "home survivor is fine", home: 0,
			copies: []Copy{{Proc: 0, Cluster: 0, State: CopyDirty}},
			entry:  EntryView{}, want: nil},
		{name: "orphaned remote shared", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyShared}},
			entry:  EntryView{},
			want:   []string{"c1: replacement recall completed but proc 1 (cluster 1) still caches the victim (S) with no covering entry or pending recall"}},
		{name: "orphaned remote dirty", home: 0,
			copies: []Copy{{Proc: 2, Cluster: 2, State: CopyDirty}},
			entry:  EntryView{},
			want:   []string{"c2: replacement recall completed but proc 2 (cluster 2) still caches the victim (D) with no covering entry or pending recall"}},
		{name: "survivor covered by re-allocated entry", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyShared}},
			entry:  maskEntry(false, -1, 0b10), want: nil},
		{name: "survivor covered as fresh dirty owner", home: 0,
			copies: []Copy{{Proc: 1, Cluster: 1, State: CopyDirty}},
			entry:  maskEntry(true, 1, 0), want: nil},
		{name: "fresh entry covering someone else", home: 0,
			copies: []Copy{{Proc: 2, Cluster: 2, State: CopyShared}},
			entry:  maskEntry(false, -1, 0b10),
			want:   []string{"c2: replacement recall completed but proc 2 (cluster 2) still caches the victim (S) with no covering entry or pending recall"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(func(emit Emit) { RecallClean(tc.home, tc.copies, tc.entry, emit) })
			assertDetails(t, got, tc.want)
		})
	}
}

func TestCopyStateString(t *testing.T) {
	// The recall message embeds the state; the short forms must match
	// cache.State's so machine- and model-built views read the same.
	for st, want := range map[CopyState]string{
		CopyInvalid: "I", CopyShared: "S", CopyDirty: "D", CopyState(9): "CopyState(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("CopyState(%d).String() = %q, want %q", uint8(st), got, want)
		}
	}
}

func assertDetails(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d violations, want %d:\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("violation %d:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}
