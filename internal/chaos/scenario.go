// Package chaos is the failure-scenario engine: a declarative DSL (YAML
// or JSON files) describing a client fleet plus timed fault-injection
// events — server crash/restart, link flaps, loss and jitter bursts,
// degrading disks — and assertions over the outcome. Scenarios execute
// in virtual time on the deterministic simulator, so every chaos run
// replays bit-identically at any worker count.
package chaos

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	nfssim "repro"
	"repro/internal/harness"
	"repro/internal/rpcsim"
	"repro/internal/server"
	"repro/internal/sim"
)

// Fleet describes the test bed a scenario runs its events against. The
// keys from server through seed are harness.Axes's chaos keys, each read
// as its nfssweep flag reads one value.
type Fleet struct {
	// Server is the backend kind: filer, linux, or slow100.
	Server string `json:"server"`
	// Config is the client configuration name (default "enhanced").
	Config string `json:"config,omitempty"`
	// Clients is the number of client machines (default 1).
	Clients int `json:"clients,omitempty"`
	// FileMB is the per-client file size in MB (default 8).
	FileMB int `json:"file_mb,omitempty"`
	// WSize overrides the configuration's write size (bytes).
	WSize int `json:"wsize,omitempty"`
	// Workload is the bonnie workload name (default "write").
	Workload string `json:"workload,omitempty"`
	// Consistency is the client consistency mode: "ttl" (default),
	// "strict", or "noac". It matters for the shared workload, where it
	// sets how eagerly readers revalidate against foreign writes.
	Consistency string `json:"consistency,omitempty"`
	// Transport is "udp" (default) or "tcp". Crash events require UDP:
	// stream connection state across a server reboot is not modeled.
	Transport string `json:"transport,omitempty"`
	// Loss is the baseline per-fragment drop probability, in [0, 1).
	Loss float64 `json:"loss,omitempty"`
	// Seed is the simulation seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// MaxRetries caps per-call RPC retransmits; past it the transport
	// surfaces a DeadServerError instead of retrying forever. 0 keeps the
	// classic hard-mount behavior (retry until the run's time limit).
	MaxRetries int `json:"max_retries,omitempty"`
	// TimeLimit bounds the run's virtual time (default 30m).
	TimeLimit sim.Time `json:"time_limit,omitempty"`
}

// Event is one timed fault injection or end-of-run assertion.
type Event struct {
	// At is the virtual time the event fires (ignored for assert_*
	// actions, which are evaluated when the run ends).
	At sim.Time `json:"at,omitempty"`
	// Action names the event; see actionSpec for the catalogue.
	Action string `json:"action"`
	// Host targets link_down/link_up: "server" or "clientN".
	Host string `json:"host,omitempty"`
	// Rate is loss_burst's per-fragment drop probability, in [0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Jitter is jitter_burst's max extra delivery delay.
	Jitter sim.Time `json:"jitter,omitempty"`
	// For is how long a loss/jitter burst or disk_degrade lasts
	// (0 for disk_degrade means until the end of the run).
	For sim.Time `json:"for,omitempty"`
	// Factor is disk_degrade's service-time multiplier (>= 1).
	Factor float64 `json:"factor,omitempty"`
	// MinMBps is assert_agg_mbps_min's threshold.
	MinMBps float64 `json:"min_mbps,omitempty"`
	// Bytes is the threshold for the byte-count asserts
	// (assert_lost_min/max, assert_rewritten_min, assert_replayed_min).
	Bytes int64 `json:"bytes,omitempty"`
	// MaxStale is assert_stale_max's ceiling on stale reads served
	// across the fleet. The assert also requires that no client ever saw
	// the server's change attribute run backwards — the monotonicity a
	// crash/restart must preserve.
	MaxStale int64 `json:"max_stale,omitempty"`
}

// Scenario is one parsed chaos scenario.
type Scenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Fleet       Fleet   `json:"fleet"`
	Events      []Event `json:"events"`

	// bed is the fleet resolved by validate to the harness scenario Run
	// drives, every default filled in the way a sweep fills it.
	bed harness.Scenario
}

// actionSpec declares each action's allowed keys beyond "at"/"action";
// Event.checkKeys rejects unknown actions and misplaced keys against it.
var actionSpec = map[string][]string{
	"server_crash":         {},
	"server_restart":       {},
	"link_down":            {"host"},
	"link_up":              {"host"},
	"loss_burst":           {"rate", "for"},
	"jitter_burst":         {"jitter", "for"},
	"disk_degrade":         {"factor", "for"},
	"assert_completes":     {},
	"assert_error":         {},
	"assert_no_data_loss":  {},
	"assert_agg_mbps_min":  {"min_mbps"},
	"assert_lost_min":      {"bytes"},
	"assert_lost_max":      {"bytes"},
	"assert_rewritten_min": {"bytes"},
	"assert_replayed_min":  {"bytes"},
	"assert_stale_max":     {"max_stale"},
}

// IsAssert reports whether the event is an end-of-run assertion rather
// than a timed injection.
func (e *Event) IsAssert() bool { return strings.HasPrefix(e.Action, "assert_") }

// Load reads and parses a scenario file. Files whose first non-space byte
// is '{' or '[' parse as JSON; everything else parses as YAML. A file
// holds either one scenario or a top-level "scenarios:" list.
func Load(path string) ([]*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	scs, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return scs, nil
}

// Parse parses scenario source (YAML subset or JSON). Both front ends
// yield the same generic tree — maps, lists, and scalars — which
// decodeValue reads into the typed scenario.
func Parse(src []byte) ([]*Scenario, error) {
	if !utf8.Valid(src) {
		return nil, fmt.Errorf("scenario source is not valid UTF-8")
	}
	trimmed := strings.TrimSpace(string(src))
	var root any
	var err error
	if strings.HasPrefix(trimmed, "{") || strings.HasPrefix(trimmed, "[") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.UseNumber()
		err = dec.Decode(&root)
	} else {
		root, err = parseYAML(src)
	}
	if err != nil {
		return nil, err
	}
	return decodeRoot(root)
}

// decodeRoot decodes the top level: one scenario map, a list of them,
// or a map holding nothing but a "scenarios" list. Errors inside a list
// name the scenario's index.
func decodeRoot(root any) ([]*Scenario, error) {
	items, isList := root.([]any)
	if m, ok := root.(map[string]any); ok {
		items = []any{m}
		if list, ok := m["scenarios"]; ok {
			if len(m) != 1 {
				return nil, fmt.Errorf("a \"scenarios:\" file must contain nothing else at top level")
			}
			if items, isList = list.([]any); !isList {
				return nil, fmt.Errorf("\"scenarios\" must be a list")
			}
		}
	} else if !isList {
		return nil, fmt.Errorf("top level must be a scenario map or a scenario list")
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty scenario list")
	}
	out := make([]*Scenario, 0, len(items))
	seen := make(map[string]bool)
	for i, item := range items {
		sc := &Scenario{}
		err := decodeValue(reflect.ValueOf(sc).Elem(), item)
		if err == nil && sc.Name == "" {
			err = fmt.Errorf("scenario needs a name")
		} else if err == nil {
			if verr := sc.validate(); verr != nil {
				err = fmt.Errorf("scenario %q: %w", sc.Name, verr)
			}
		}
		if err != nil && isList {
			err = fmt.Errorf("scenario %d: %w", i, err)
		}
		if err != nil {
			return nil, err
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		out = append(out, sc)
	}
	return out, nil
}

// checkKeys rejects an event with no action, an unknown action, or a
// key its action does not take. decodeValue calls it with the event's
// source map once the fields are set.
func (e *Event) checkKeys(m map[string]any) error {
	if e.Action == "" {
		return fmt.Errorf("event needs an action")
	}
	allowed, ok := actionSpec[e.Action]
	if !ok {
		return fmt.Errorf("unknown action %q", e.Action)
	}
	for _, key := range slices.Sorted(maps.Keys(m)) {
		if key != "at" && key != "action" && !slices.Contains(allowed, key) {
			return fmt.Errorf("action %q does not take %q", e.Action, key)
		}
	}
	return nil
}

var timeType = reflect.TypeFor[sim.Time]()

// decodeValue decodes v, a node of the parse tree (map[string]any,
// []any, or a scalar: a string, or a json.Number from JSON), into dst.
// The json tags are the schema. A map decodes into a struct key by key,
// in sorted order so the first error is the same on every run; a key
// matches only the exported field whose tag names it. A list decodes
// into a slice. A scalar decodes by the field's type: a string; an
// integer, written in decimal or as an integral JSON number (2.0, 1e3);
// a finite float64; a sim.Time, written as a duration string ("200ms")
// or as JSON nanoseconds (a fraction is truncated).
func decodeValue(dst reflect.Value, v any) error {
	switch dst.Kind() {
	case reflect.Struct:
		m, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("expected a map, got %T", v)
		}
		for _, key := range slices.Sorted(maps.Keys(m)) {
			f := fieldByTag(dst, key)
			if !f.IsValid() {
				return fmt.Errorf("unknown key %q", key)
			}
			if err := decodeValue(f, m[key]); err != nil {
				return within(key, err)
			}
		}
		if ev, ok := dst.Addr().Interface().(*Event); ok {
			return ev.checkKeys(m)
		}
		return nil
	case reflect.Slice:
		list, ok := v.([]any)
		if !ok {
			return fmt.Errorf("expected a list, got %T", v)
		}
		s := reflect.MakeSlice(dst.Type(), len(list), len(list))
		for i, item := range list {
			if err := decodeValue(s.Index(i), item); err != nil {
				return within(fmt.Sprintf("[%d]", i), err)
			}
		}
		dst.Set(s)
		return nil
	}
	text, isString := v.(string)
	num, isNumber := v.(json.Number)
	if isNumber {
		text = string(num)
	}
	isTime := dst.Type() == timeType
	switch {
	case !isString && !isNumber:
	case dst.Kind() == reflect.String && isString:
		dst.SetString(text)
		return nil
	case isTime && isString:
		d, err := time.ParseDuration(strings.TrimSpace(text))
		if err != nil {
			return fmt.Errorf("expected a duration (\"200ms\"), got %q", text)
		}
		dst.SetInt(int64(d))
		return nil
	case dst.CanInt():
		n, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil && isNumber {
			if f, ferr := num.Float64(); ferr == nil && (isTime || f == float64(int64(f))) {
				n, err = int64(f), nil
			}
		}
		if err != nil {
			return fmt.Errorf("expected an integer, got %q", text)
		}
		dst.SetInt(n)
		return nil
	case dst.Kind() == reflect.Float64:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("expected a finite number, got %q", text)
		}
		dst.SetFloat(f)
		return nil
	}
	return fmt.Errorf("expected a %s, got %T", dst.Type(), v)
}

// fieldByTag returns the exported field of struct dst whose json tag
// names key, or the zero Value. Untagged and "-" fields never match.
func fieldByTag(dst reflect.Value, key string) reflect.Value {
	for i := range dst.NumField() {
		f := dst.Type().Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.IsExported() && name == key && name != "" && name != "-" {
			return dst.Field(i)
		}
	}
	return reflect.Value{}
}

// pathError places a decode error at the key path that led to it:
// "fleet.loss", "events[2].for".
type pathError struct {
	path string
	err  error
}

func (e *pathError) Error() string { return e.path + ": " + e.err.Error() }

// within puts err under elem, a key or a "[i]" index.
func within(elem string, err error) error {
	inner, ok := err.(*pathError)
	if !ok {
		return &pathError{elem, err}
	}
	if !strings.HasPrefix(inner.path, "[") {
		elem += "."
	}
	return &pathError{elem + inner.path, inner.err}
}

// validate applies the schema's semantic rules: defaults, ranges, host
// names, and crash/restart ordering.
func (sc *Scenario) validate() error {
	if len(sc.Events) == 0 {
		return fmt.Errorf("a scenario needs at least one entry under events: (an event or an assert)")
	}
	f := &sc.Fleet
	if f.Server == "" {
		return fmt.Errorf("fleet.server is required (filer, linux, or slow100)")
	}
	if f.Config == "" {
		f.Config = "enhanced"
	}
	if f.FileMB == 0 {
		f.FileMB = 8
	}
	if f.MaxRetries < 0 {
		return fmt.Errorf("fleet.max_retries must be >= 0")
	}
	if f.TimeLimit < 0 {
		return fmt.Errorf("fleet.time_limit must be positive")
	}
	// Each axis key sets the bed through the axis table, as its nfssweep
	// flag would; a zero value keeps the axis default.
	g := harness.Grid{TimeLimit: f.TimeLimit}
	fleet := reflect.ValueOf(f).Elem()
	for _, a := range harness.Axes {
		if a.Key == "" {
			continue
		}
		spec := ""
		if v := fieldByTag(fleet, a.Key); !v.IsZero() {
			spec = fmt.Sprint(v.Interface())
		}
		if err := a.Set(&g, spec); err != nil {
			return fmt.Errorf("fleet.%s: %w", a.Key, err)
		}
		if len(g.Expand()) != 1 {
			return fmt.Errorf("fleet.%s: %q is a list; a fleet takes one value", a.Key, spec)
		}
	}
	sc.bed = g.Expand()[0]
	if sc.bed.Server == nfssim.ServerNone {
		return fmt.Errorf("fleet.server: %q is not an NFS server kind (want filer, linux, or slow100)", f.Server)
	}

	crashed := false
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.At < 0 {
			return fmt.Errorf("event %q: at must be non-negative", ev.Action)
		}
		switch ev.Action {
		case "server_crash":
			if sc.bed.Transport == rpcsim.TransportTCP {
				return fmt.Errorf("server_crash requires transport udp (stream state across a reboot is not modeled)")
			}
			if crashed {
				return fmt.Errorf("server_crash while the server is already down")
			}
			crashed = true
		case "server_restart":
			if !crashed {
				return fmt.Errorf("server_restart without a preceding server_crash")
			}
			crashed = false
		case "link_down", "link_up":
			if err := validateHost(ev.Host, sc.bed.Clients); err != nil {
				return fmt.Errorf("%s: %w", ev.Action, err)
			}
		case "loss_burst":
			if ev.Rate < 0 || ev.Rate > 1 {
				return fmt.Errorf("loss_burst.rate must be in [0, 1]")
			}
			if ev.For <= 0 {
				return fmt.Errorf("loss_burst needs a positive \"for\" window")
			}
		case "jitter_burst":
			if ev.Jitter <= 0 {
				return fmt.Errorf("jitter_burst needs a positive jitter")
			}
			if ev.For <= 0 {
				return fmt.Errorf("jitter_burst needs a positive \"for\" window")
			}
		case "disk_degrade":
			if ev.Factor < 1 {
				return fmt.Errorf("disk_degrade.factor must be >= 1")
			}
		case "assert_agg_mbps_min":
			if ev.MinMBps <= 0 {
				return fmt.Errorf("assert_agg_mbps_min needs a positive min_mbps")
			}
		case "assert_lost_min", "assert_rewritten_min", "assert_replayed_min":
			if ev.Bytes <= 0 {
				return fmt.Errorf("%s needs positive bytes", ev.Action)
			}
		case "assert_lost_max":
			if ev.Bytes < 0 {
				return fmt.Errorf("assert_lost_max needs non-negative bytes")
			}
		case "assert_stale_max":
			if ev.MaxStale < 0 {
				return fmt.Errorf("assert_stale_max needs non-negative max_stale")
			}
		}
	}
	// Crash/restart ordering is checked in event-list order above; also
	// require the timed ordering to match once sorted by At (stable sort,
	// so same-time events keep list order).
	sorted := make([]Event, len(sc.Events))
	copy(sorted, sc.Events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	down := false
	for i := range sorted {
		switch sorted[i].Action {
		case "server_crash":
			if down {
				return fmt.Errorf("server_crash at %v fires while the server is already down", sorted[i].At)
			}
			down = true
		case "server_restart":
			if !down {
				return fmt.Errorf("server_restart at %v fires with the server up", sorted[i].At)
			}
			down = false
		}
	}
	return nil
}

func validateHost(host string, clients int) error {
	if host == "" {
		return fmt.Errorf("needs a host (\"server\" or \"clientN\")")
	}
	if host == "server" {
		return nil
	}
	n, ok := strings.CutPrefix(host, "client")
	if !ok {
		return fmt.Errorf("unknown host %q (want \"server\" or \"clientN\")", host)
	}
	idx, err := strconv.Atoi(n)
	if err != nil || idx < 0 {
		return fmt.Errorf("unknown host %q (want \"server\" or \"clientN\")", host)
	}
	if idx >= clients {
		return fmt.Errorf("host %q is outside the fleet (clients: %d)", host, clients)
	}
	return nil
}

// resolveHost maps a scenario host name to the netsim host name.
func resolveHost(host string, kind nfssim.ServerKind) string {
	if host != "server" {
		return host // clientN names are the netsim names
	}
	switch kind {
	case nfssim.ServerFiler:
		return server.HostFiler
	case nfssim.ServerLinux:
		return server.HostLinux
	default:
		return server.HostSlow
	}
}
