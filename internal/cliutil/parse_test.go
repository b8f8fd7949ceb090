package cliutil

import (
	"flag"
	"strings"
	"testing"

	"rme/internal/sim"
)

func TestModelFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		want sim.Model
	}{
		{nil, sim.CC},
		{[]string{"-model", "cc"}, sim.CC},
		{[]string{"-model", "DSM"}, sim.DSM},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		m := ModelFlag(fs, "cost model")
		if err := fs.Parse(c.args); err != nil || *m != c.want {
			t.Errorf("%v: model %v, err %v; want %v", c.args, *m, err, c.want)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	ModelFlag(fs, "cost model")
	err := fs.Parse([]string{"-model", "dms"})
	if err == nil || !strings.Contains(err.Error(), `unknown model "dms" (want cc or dsm)`) {
		t.Fatalf("-model dms: err %v", err)
	}
}
