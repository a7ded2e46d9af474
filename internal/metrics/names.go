package metrics

import "strings"

// CanonicalName maps an internal metric name to its stable snake_case form:
// lowercase, with every run of non-alphanumeric characters (dots, dashes,
// slashes, spaces) collapsed to a single underscore. Registry keys stay
// free-form — instrumentation sites keep their dotted names — but both
// rendered surfaces (the /metrics Prometheus exposition and the
// self-telemetry sink's __system.metrics rows) go through this one function,
// so dashboards and scrape configs see one spelling that does not drift
// when internal names do. The canonical set is pinned by TestCanonicalNames.
func CanonicalName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	lastUnderscore := false
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
			lastUnderscore = false
		default:
			if !lastUnderscore && b.Len() > 0 {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	out := strings.TrimSuffix(b.String(), "_")
	if out == "" {
		return "_"
	}
	return out
}
