package apps

import (
	"fmt"
	"strings"

	"dircoh/internal/tango"
)

// Factory builds a workload at its default experiment size for the given
// processor count.
type Factory func(procs int) *tango.Workload

// UnknownAppError reports an application name that is neither registered
// nor "trace:<dir>". Valid lists every registered application so flag
// validation can enumerate the choices.
type UnknownAppError struct {
	Name  string
	Valid []string
}

func (e *UnknownAppError) Error() string {
	return fmt.Sprintf("unknown application %q (want one of %s, or trace:<dir>)", e.Name, strings.Join(e.Valid, ", "))
}

// The package registry. Registration happens at init time; lookups after
// that are read-only, so no locking is needed.
var (
	paperApps     []string // the paper's evaluation set, registration order
	extensionApps []string // extra workloads beyond the paper
	appFactories  = make(map[string]Factory)
)

// Register adds a workload factory under a canonical name plus optional
// aliases; lookups are case-insensitive. Workloads registered with paper
// set appear in Names() — the evaluation set every sweep iterates — while
// extensions are reachable by name only. Register panics on a duplicate
// name: registration is a program-integrity matter, not input validation.
func Register(name string, paper bool, f Factory, aliases ...string) {
	if f == nil {
		panic("apps: Register with nil factory")
	}
	canon := strings.ToLower(name)
	if canon == "" {
		panic("apps: Register with empty name")
	}
	if _, dup := appFactories[canon]; dup {
		panic(fmt.Sprintf("apps: workload %q registered twice", name))
	}
	appFactories[canon] = f
	if paper {
		paperApps = append(paperApps, name)
	} else {
		extensionApps = append(extensionApps, name)
	}
	for _, a := range aliases {
		a = strings.ToLower(a)
		if _, dup := appFactories[a]; dup {
			panic(fmt.Sprintf("apps: workload alias %q registered twice", a))
		}
		appFactories[a] = f
	}
}

// Lookup resolves an application name to its factory. Unknown names
// return *UnknownAppError listing the valid choices.
func Lookup(name string) (Factory, error) {
	if f, ok := appFactories[strings.ToLower(name)]; ok {
		return f, nil
	}
	return nil, &UnknownAppError{Name: name, Valid: All()}
}

// Build makes a workload for the given processor count.
type Build func(procs int) (*tango.Workload, error)

// Resolve is the one naming rule for workloads, shared by every command,
// suite and campaign: a registered application (any case, or an alias)
// builds at its default size, and "trace:<dir>" replays the per-core text
// trace in dir (LoadTraceDir). Any other name is an *UnknownAppError.
// Resolve reads no file, so a bad trace fails when it is built.
func Resolve(name string) (Build, error) {
	if dir, ok := strings.CutPrefix(name, "trace:"); ok && dir != "" {
		return func(procs int) (*tango.Workload, error) { return LoadTraceDir(dir, procs) }, nil
	}
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return func(procs int) (*tango.Workload, error) { return f(procs), nil }, nil
}

// ByName builds a default-sized workload by its paper name. It returns
// nil for unknown names; callers that want the error message should use
// Lookup.
func ByName(name string, procs int) *tango.Workload {
	f, err := Lookup(name)
	if err != nil {
		return nil
	}
	return f(procs)
}

// Names lists the paper's evaluation applications in the paper's order.
// Extension workloads (FFT) are available via Lookup/ByName but are not
// part of the evaluation set.
func Names() []string { return append([]string(nil), paperApps...) }

// All lists every registered application: the paper set first, then the
// extensions.
func All() []string {
	return append(Names(), extensionApps...)
}

func init() {
	Register("LU", true, func(procs int) *tango.Workload { return LU(DefaultLU(procs)) })
	Register("DWF", true, func(procs int) *tango.Workload { return DWF(DefaultDWF(procs)) })
	Register("MP3D", true, func(procs int) *tango.Workload { return MP3D(DefaultMP3D(procs)) })
	Register("LocusRoute", true, func(procs int) *tango.Workload { return LocusRoute(DefaultLocusRoute(procs)) }, "locus")
	Register("FFT", false, func(procs int) *tango.Workload { return FFT(DefaultFFT(procs)) })
}
