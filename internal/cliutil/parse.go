package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"rme/internal/perflog"
	"rme/internal/sim"
)

// Parse registers the shared -version flag on fs and parses args. With
// -version it prints the build banner of the tool fs is named after and
// reports done, so the caller returns before doing any work.
func Parse(fs *flag.FlagSet, args []string) (done bool, err error) {
	version := fs.Bool("version", false, "print build provenance (go version, git revision, dirty bit) and exit")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *version {
		fmt.Println(VersionString(fs.Name()))
	}
	return *version, nil
}

// VersionString renders the standard -version banner for a tool.
func VersionString(tool string) string {
	return tool + " " + perflog.Build().Short()
}

// ModelFlag registers -model on fs: cc or dsm, case-insensitive, default cc.
// Any other value fails the parse. usage describes what the model selects.
func ModelFlag(fs *flag.FlagSet, usage string) *sim.Model {
	m := sim.CC
	fs.Func("model", usage+": cc or dsm (default cc)", func(s string) error {
		switch strings.ToLower(s) {
		case "cc":
			m = sim.CC
		case "dsm":
			m = sim.DSM
		default:
			return fmt.Errorf("unknown model %q (want cc or dsm)", s)
		}
		return nil
	})
	return &m
}
