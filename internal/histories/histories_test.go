package histories

import "testing"

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "x1", "q1(x)", "r(x)", "r1", "r1()", "w1(x)", "w1(x,y)",
		"c1(x)", "b1(x)", "r1(x,y)",
	}
	for _, h := range bad {
		if _, err := Parse(h); err == nil {
			t.Errorf("Parse(%q) accepted", h)
		}
	}
	steps, err := Parse("b1 r1(x) w1(x,5) u1(y) c1 a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 || steps[2].Val != 5 || steps[3].Kind != OpSFU {
		t.Fatalf("parsed %+v", steps)
	}
}
