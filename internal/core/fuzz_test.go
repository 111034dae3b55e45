package core

import (
	"testing"

	"bbmig/internal/bitmap"
	"bbmig/internal/transport"
)

// FuzzJournal throws arbitrary bytes at the journal loader: it must return
// an error or a state, never panic, and any state it accepts must survive
// marshalJournal and a second parse as an equal value. The round trip is on
// the value, not the bytes: padding and unknown phase codes are not
// canonical.
func FuzzJournal(f *testing.F) {
	pending := bitmap.New(300)
	pending.Set(0)
	pending.Set(64)
	pending.Set(299)
	for _, st := range []JournalState{
		{},
		{Token: transport.SessionToken{1, 2, 3}, Epoch: 3, Phase: PhaseDiskPreCopy, Iter: 2, Pending: pending},
		{Epoch: 1, Phase: PhaseFreezeCopy, Iter: 1, Pending: bitmap.New(0)},
		{Phase: PhasePostCopy, Pending: bitmap.New(64)},
	} {
		data, err := marshalJournal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("BBJR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := unmarshalJournal(data)
		if err != nil {
			return
		}
		again, err := marshalJournal(st)
		if err != nil {
			t.Fatalf("accepted journal %+v does not marshal: %v", st, err)
		}
		st2, err := unmarshalJournal(again)
		if err != nil {
			t.Fatalf("re-marshalled journal rejected: %v", err)
		}
		if st.Token != st2.Token || st.Epoch != st2.Epoch || st.Phase != st2.Phase || st.Iter != st2.Iter ||
			(st.Pending == nil) != (st2.Pending == nil) || (st.Pending != nil && !st.Pending.Equal(st2.Pending)) {
			t.Fatalf("journal round trip changed the state:\n%+v\n%+v", st, st2)
		}
	})
}
