package detect

import (
	"fmt"
	"sort"
	"strings"
)

// Registry maps module names to constructors, so tools can assemble a
// detector stack from a comma-separated flag ("customizable security
// modules to meet customer needs", §1 Modular).
var registry = map[string]func() Module{
	"canary-overflow":    func() Module { return CanaryModule{} },
	"malware-blacklist":  func() Module { return NewMalwareModule(nil) },
	"syscall-integrity":  func() Module { return SyscallModule{} },
	"hidden-process":     func() Module { return HiddenProcessModule{} },
	"output-scan":        func() Module { return NewOutputScanModule(nil, nil) },
	"deep-psscan":        func() Module { return DeepScanModule{} },
	"deep-psscan-inc":    func() Module { return NewIncrementalDeepScan() },
	"transient-census":   func() Module { return NewTransientCensus() },
	"cross-epoch-revert": func() Module { return CrossEpochRevertModule{} },
}

// DefaultModules returns the standard per-checkpoint stack: guest-aided
// canary scanning plus the unaided malware, syscall-integrity, and
// hidden-process scans.
func DefaultModules() []Module {
	return []Module{CanaryModule{}, NewMalwareModule(nil), SyscallModule{}, HiddenProcessModule{}}
}

// AvailableModules lists the registered module names.
func AvailableModules() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModulesByName builds modules from a comma-separated list of names;
// "default" expands to the standard per-checkpoint stack.
func ModulesByName(spec string) ([]Module, error) {
	var out []Module
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "default" {
			out = append(out, DefaultModules()...)
			continue
		}
		ctor, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("detect: unknown module %q (available: %s)",
				name, strings.Join(AvailableModules(), ", "))
		}
		out = append(out, ctor())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("detect: no modules selected")
	}
	return out, nil
}
