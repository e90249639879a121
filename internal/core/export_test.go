package core

import (
	"math/bits"
	"sync"
)

// DPShape counts the shape of the DP work over many runs: the rows the
// runs stamped, bucketed by band width (index 0: an empty row, 1, 2, and
// 3 or more cells) and by live out-degree (0, 1, 2, and 3 or more arcs),
// the arcs those rows expanded, and the arcs whose source row held one
// cell.
type DPShape struct {
	Runs, Rows, Arcs, OneCellArcs int64
	Width, OutDeg                 [4]int64
}

// ObserveDP makes every DP run, in any goroutine, add its shape to a
// running total until the returned function is called; that function
// removes the probe and returns the total. Calls must not overlap.
func ObserveDP() func() DPShape {
	var (
		mu  sync.Mutex
		tot DPShape
	)
	dpProbe = func(st *distState) {
		mu.Lock()
		defer mu.Unlock()
		tot.Runs++
		// The frontier holds the run's reach until evalStart takes it.
		for w, word := range st.frontier {
			for ; word != 0; word &= word - 1 {
				r := st.rows[w<<6|bits.TrailingZeros64(word)]
				width := max(int(r.max-r.min)+1, 0)
				deg := int(r.hi - r.lo)
				tot.Rows++
				tot.Arcs += int64(deg)
				if width == 1 {
					tot.OneCellArcs += int64(deg)
				}
				tot.Width[min(width, 3)]++
				tot.OutDeg[min(deg, 3)]++
			}
		}
	}
	return func() DPShape {
		dpProbe = nil
		return tot
	}
}
