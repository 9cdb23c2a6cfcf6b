package obs

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// metricNameRE is the repo's naming convention: lower-snake-case,
// starting with a letter, no leading/trailing/double underscores.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// histogramUnitSuffixes are the unit suffixes a histogram name must
// end with, per the convention that a histogram's name states what it
// measures.
var histogramUnitSuffixes = []string{"_seconds", "_bytes"}

// Lint walks every registered family, plain or labeled, and reports
// convention violations: malformed (non-snake-case) metric or label
// names, counters missing the _total suffix, histograms missing a
// unit suffix, a name registered under more than one kind, and any
// family whose live series count exceeds its declared cardinality
// bound. It is cheap static-analysis insurance against label-explosion
// and naming regressions; a nil registry lints clean.
func (r *Registry) Lint() []error {
	if r == nil {
		return nil
	}
	var errs []error
	addf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.families[name]
		f := v.desc()
		// A name registered under a second kind got a detached family,
		// which the exposition leaves out.
		for _, d := range r.detached {
			if d.desc().name == name {
				addf("obs: %q registered as %s and %s", name, f.lintName(), d.desc().lintName())
			}
		}
		if !metricNameRE.MatchString(name) {
			addf("obs: %s %q is not snake_case", f.kind, name)
		}
		hasSuffix := func(suf string) bool { return strings.HasSuffix(name, suf) }
		switch {
		case f.kind == "counter" && !hasSuffix("_total"):
			addf("obs: counter %q missing _total suffix", name)
		case f.kind == "histogram" && !slices.ContainsFunc(histogramUnitSuffixes, hasSuffix):
			addf("obs: histogram %q missing a unit suffix (%s)", name, strings.Join(histogramUnitSuffixes, ", "))
		}
		for _, k := range f.keys {
			if !metricNameRE.MatchString(k) {
				addf("obs: family %q label key %q is not snake_case", name, k)
			}
		}
		if live := v.Len(); live > f.max {
			addf("obs: family %q holds %d live series, over its bound of %d", name, live, f.max)
		}
	}
	return errs
}
