package stream

import (
	"math"
	"testing"
)

// TestAllPassNeverSkipsAFiringPair: the verdict loops' inline exit
// (allPass) skips scoredVerdict only where scoredVerdict fires nothing.
// Each boundary of the exit — lhs == rdThr·tdc, dc == popFloor and
// lhs == tdc — is taken exactly at equality and refused one ulp below,
// where the corresponding measure fires. IRSD is configured to fire on
// every pair that reaches it, so a skipped rd < 1 pair would show.
func TestAllPassNeverSkipsAFiringPair(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Scoring = true
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	sh := det.shards[0]
	st := sh.states[0]
	st.irsdThr = 1.5 // 1/(1+z) ≤ 1 always fires once the gate is passed
	st.ikrdThr = 0
	below := func(x float64) float64 { return math.Nextafter(x, 0) }

	const tdc, ts, tq = 10.0, 10.0, 30.0 // subspace variance 2 > 0
	cases := []struct {
		name                string
		lhs, dc             float64
		rdThr, popFloor     float64
		wantExit, wantFired bool
	}{
		{name: "all pass", lhs: 40, dc: 2, rdThr: 2, popFloor: 1, wantExit: true},
		{name: "lhs == rdThr*tdc", lhs: 20, dc: 2, rdThr: 2, popFloor: 1, wantExit: true},
		{name: "lhs < rdThr*tdc", lhs: below(20), dc: 2, rdThr: 2, popFloor: 1, wantFired: true},
		{name: "dc == popFloor", lhs: 40, dc: 2, rdThr: 2, popFloor: 2, wantExit: true},
		{name: "dc < popFloor", lhs: 40, dc: below(2), rdThr: 2, popFloor: 2, wantFired: true},
		{name: "lhs == tdc", lhs: tdc, dc: 2, rdThr: 0.05, popFloor: 1, wantExit: true},
		{name: "lhs < tdc", lhs: below(tdc), dc: 2, rdThr: 0.05, popFloor: 1, wantFired: true},
		{name: "NaN lhs", lhs: math.NaN(), dc: 2, rdThr: 2, popFloor: 1},
	}
	for _, c := range cases {
		st.popFloor = c.popFloor
		exit := allPass(c.lhs, c.rdThr*tdc, c.dc, c.popFloor, tdc)
		fired, _ := sh.scoredVerdict(&st, 0, st.keyBase, c.lhs, c.dc, 2*c.dc, tdc, ts, tq, c.rdThr)
		if exit && fired != 0 {
			t.Errorf("%s: exit taken but scoredVerdict fires %v", c.name, fired)
		}
		if exit != c.wantExit {
			t.Errorf("%s: exit = %v, want %v", c.name, exit, c.wantExit)
		}
		if (fired != 0) != c.wantFired {
			t.Errorf("%s: fired = %v, want firing %v", c.name, fired, c.wantFired)
		}
	}
}
