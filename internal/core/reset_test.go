package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// entryOp applies one random operation to e and returns what a caller
// can observe afterwards: the operation's result and the entry's state.
// r drives the operation choice; the same r state yields the same op.
func entryOp(r *rand.Rand, e Entry, nodes int) string {
	n := r.Intn(nodes)
	var res any
	switch op := r.Intn(10); {
	case op < 4:
		res = append([]NodeID(nil), e.AddSharer(n)...)
	case op < 5:
		e.RemoveSharer(n)
	case op < 6:
		e.SetDirty(n)
	case op < 7:
		e.ClearDirty()
	case op < 8:
		res = append([]NodeID(nil), e.PopGrant()...)
	case op < 9:
		// Callers mutate Sharers views; the entry must not notice.
		v := e.Sharers()
		res = v.String()
		v.Fill()
	default:
		e.Reset()
	}
	sharers := make([]bool, nodes)
	for i := range sharers {
		sharers[i] = e.IsSharer(i)
	}
	return fmt.Sprintf("%v|%v|count=%d dirty=%v owner=%d empty=%v precise=%v|%v",
		res, e.Sharers(), e.Count(), e.Dirty(), e.Owner(), e.Empty(), e.Precise(), sharers)
}

// TestResetEntryMatchesNew is a differential test over every registered
// scheme (and paper notation for the families without a registered
// name): an entry driven through random operations and then Reset must
// behave exactly like a NewEntry() under any further operations. The
// sparse directory relies on it when a released slot reuses its entry.
//
// Schemes may draw victims from a private random stream, so the two
// entries come from two identically built schemes, and a throwaway entry
// of the second scheme replays the first entry's history to leave both
// streams in the same state.
func TestResetEntryMatchesNew(t *testing.T) {
	names := append(SchemeNames(), "Dir4CV8", "Dir2X", "Dir4R8", "Dir2NB", "Dir2B")
	for _, nodes := range []int{32, 96} {
		for _, name := range names {
			f, err := Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 20; seed++ {
				a, b := Must(f(nodes)), Must(f(nodes))
				history := rand.New(rand.NewSource(seed))
				pre := 1 + history.Intn(40)
				used := a.NewEntry()
				shadow := b.NewEntry()
				hr1 := rand.New(rand.NewSource(seed))
				hr2 := rand.New(rand.NewSource(seed))
				for i := 0; i < pre; i++ {
					entryOp(hr1, used, nodes)
					entryOp(hr2, shadow, nodes)
				}
				used.Reset()
				fresh := b.NewEntry()
				fr1 := rand.New(rand.NewSource(seed + 1000))
				fr2 := rand.New(rand.NewSource(seed + 1000))
				for i := 0; i < 60; i++ {
					got, want := entryOp(fr1, used, nodes), entryOp(fr2, fresh, nodes)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at %d nodes, seed %d, op %d after %d before Reset:\nreset entry: %s\nnew entry:   %s",
							a.Name(), nodes, seed, i, pre, got, want)
					}
				}
			}
		}
	}
}
