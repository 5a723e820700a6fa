package core

import "testing"

func TestParseMethod(t *testing.T) {
	cases := map[string]Method{
		"coo": MethodCOO, "COO": MethodCOO,
		"splatt": MethodSPLATT, "SPLATT": MethodSPLATT,
		"mb": MethodMB, "MB": MethodMB,
		"rankb": MethodRankB, "RankB": MethodRankB,
		"mbrankb": MethodMBRankB, "mb+rankb": MethodMBRankB, "MB+RankB": MethodMBRankB,
	}
	for in, want := range cases {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, m := range []Method{MethodCOO, MethodSPLATT, MethodMB, MethodRankB, MethodMBRankB} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, in := range []string{"", "zzz", "mb rankb", "rankb+mb", "Method(7)"} {
		if _, err := ParseMethod(in); err == nil {
			t.Errorf("ParseMethod(%q) accepted", in)
		}
	}
}

func TestParseGrid(t *testing.T) {
	good := map[string][3]int{
		"2x2x2":    {2, 2, 2},
		"1x1x1":    {1, 1, 1},
		"4X2x16":   {4, 2, 16},
		"10x3x100": {10, 3, 100},
	}
	for in, want := range good {
		got, err := ParseGrid(in)
		if err != nil || got != want {
			t.Errorf("ParseGrid(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	bad := []string{
		"", "2", "2x2", "2x2x2x4", "2x2x2junk", "2x2x2x", "x2x2",
		"0x-3x2", "0x2x2", "2x-1x2", "2x2x0", "2 x2x2", "2x2x2 ", "axbxc",
	}
	for _, in := range bad {
		if got, err := ParseGrid(in); err == nil {
			t.Errorf("ParseGrid(%q) = %v, accepted", in, got)
		}
	}
}
