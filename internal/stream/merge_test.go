package stream

import (
	"reflect"
	"testing"

	"literace/internal/hb"
)

// race builds a shard race whose CurSeq records its (ord, sub) position,
// so a merged list can be checked for replay order.
func race(ord uint64, sub int, unconfirmed bool) shardRace {
	return shardRace{
		r:   hb.DynamicRace{CurSeq: ord*10 + uint64(sub), Unconfirmed: unconfirmed},
		ord: ord,
		sub: sub,
	}
}

func TestMergeRaces(t *testing.T) {
	lists := func() [][]shardRace {
		return [][]shardRace{
			{race(0, 0, false), race(0, 1, false), race(7, 0, true)},
			nil,
			{race(2, 0, false), race(5, 0, true), race(5, 1, true), race(9, 0, true)},
			{race(3, 0, false)},
		}
	}
	order := []uint64{0, 1, 20, 30, 50, 51, 70, 90}
	for _, tc := range []struct {
		keepMax int
		want    int
	}{{0, 8}, {3, 3}, {8, 8}, {100, 8}} {
		races, total, unconfirmed := mergeRaces(lists(), tc.keepMax)
		if total != 8 || unconfirmed != 4 {
			t.Errorf("keepMax %d: total %d unconfirmed %d, want 8 and 4 (counted beyond KeepMax)",
				tc.keepMax, total, unconfirmed)
		}
		if len(races) != tc.want || cap(races) != tc.want {
			t.Errorf("keepMax %d: len %d cap %d, want both %d", tc.keepMax, len(races), cap(races), tc.want)
		}
		var got []uint64
		for _, r := range races {
			got = append(got, r.CurSeq)
		}
		if !reflect.DeepEqual(got, order[:len(got)]) {
			t.Errorf("keepMax %d: merged order %v, want %v", tc.keepMax, got, order[:tc.want])
		}
	}

	// No races anywhere leaves the list nil, as a batch pass does.
	for _, empty := range [][][]shardRace{nil, {nil, {}, nil}} {
		races, total, unconfirmed := mergeRaces(empty, 0)
		if races != nil || total != 0 || unconfirmed != 0 {
			t.Errorf("no races: got %v, %d, %d; want nil, 0, 0", races, total, unconfirmed)
		}
	}
}
