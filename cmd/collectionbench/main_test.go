package main

import "testing"

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1, 2,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseThreads = %v", got)
	}
	for _, bad := range []string{"", "0", "a", "1,,2", "-3"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("parseThreads(%q) accepted", bad)
		}
	}
}

func TestRunSmallFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("duration-based sweep")
	}
	err := run([]string{"-fig", "5", "-size", "64", "-dur", "10ms", "-threads", "1,2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "nope"}); err == nil {
		t.Fatal("bad figure accepted")
	}
	// The side-sweeps live in benchmark/ now; their flags are gone.
	for _, removed := range [][]string{
		{"-cache"}, {"-readpath"}, {"-shards"}, {"-typed=false"}, {"-procs", "1"}, {"-fig", "none"},
	} {
		if err := run(append(removed, "-soak=false", "-dur", "1ms", "-threads", "1", "-size", "16")); err == nil {
			t.Errorf("removed option %v accepted", removed)
		}
	}
}
