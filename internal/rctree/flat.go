package rctree

import "fmt"

// TimesFlat is the flat-array characteristic-times pass: the same single
// linear sweep as Tree.CharacteristicTimesInto, but over parallel columns
// describing one tree in topological order (parent[0] == -1 at the root):
// parent index, EdgeKind, element resistance, distributed line capacitance
// and lumped node capacitance per node. internal/timing's design arena
// stores every net in this form. TimesFlat performs no allocation once s has
// grown to len(parent) elements, which is what makes the design-level
// propagation hot path allocation-free.
func TimesFlat(parent []int32, kind []uint8, edgeR, edgeC, nodeC []float64, e int, s *Scratch) (Times, error) {
	n := len(parent)
	if e < 0 || e >= n {
		return Times{}, fmt.Errorf("rctree: output id %d out of range", e)
	}
	s.grow(n)
	onPath := s.onPath
	for x := e; ; x = int(parent[x]) {
		onPath[x] = true
		if x == 0 {
			break
		}
	}
	var tp, td, trNum float64 // trNum = Σ Rke²·Ck
	rkk := s.rkk
	rke := s.rke
	for i := 1; i < n; i++ {
		r0 := rkk[parent[i]]
		rkk[i] = r0 + edgeR[i]
		common0 := rke[parent[i]]
		if onPath[i] {
			rke[i] = rkk[i] // still on the input→e path: common path grows
		} else {
			rke[i] = common0 // frozen at the branch point
		}
		// Lumped capacitance at node i.
		tp += nodeC[i] * rkk[i]
		td += nodeC[i] * rke[i]
		trNum += nodeC[i] * rke[i] * rke[i]
		// Distributed line along the edge into node i.
		if EdgeKind(kind[i]) == EdgeLine {
			r, c := edgeR[i], edgeC[i]
			tp += c * (r0 + r/2)
			if onPath[i] {
				td += c * (common0 + r/2)
				trNum += c * (common0*common0 + common0*r + r*r/3)
			} else {
				td += c * common0
				trNum += c * common0 * common0
			}
		}
	}
	ree := rkk[e]
	tm := Times{TP: tp, TD: td, Ree: ree}
	if ree > 0 {
		tm.TR = trNum / ree
	} else if trNum != 0 {
		return Times{}, fmt.Errorf("rctree: output %d has Ree=0 but nonzero TR numerator", e)
	}
	if err := tm.Validate(); err != nil {
		return Times{}, err
	}
	return tm, nil
}
