(** A dependency-free metrics registry for the matching stack.

    One global registry holds three instrument kinds — monotonic counters,
    gauges, and fixed-bucket histograms with p50/p90/p99 readout — plus
    sampled probes (callbacks read at dump time, for values that already
    live elsewhere, e.g. the LRU cache's own atomic counters). Every
    instrument's hot path is a single [Atomic] operation, so Domain workers
    record concurrently without locks; the registry mutex is only taken on
    first registration and on [dump].

    Instruments are identified by (name, sorted labels). Creation is
    get-or-create: asking twice for the same identity returns the same
    instrument, so modules can create their instruments at init or lazily
    at first use without coordination. Registering a probe under an
    existing identity {e replaces} it — a fresh daemon state re-points the
    daemon-family probes at itself.

    [dump] renders the whole registry as Prometheus text-format lines
    ([name{label="v"} value]), sorted by name for deterministic output. *)

(** {1 Global switch} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** When disabled, every record operation is a no-op (one atomic load);
    instruments keep their values. The switch exists so the overhead bench
    can compare metrics-on vs metrics-off on identical work. *)

(** {1 Counters} *)

type counter

val counter : ?labels:(string * string) list -> string -> counter
(** Get or create the monotonic counter [name{labels}]. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Negative deltas are ignored: counters are monotone. *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?labels:(string * string) list -> string -> gauge

val set_gauge : gauge -> int -> unit

val add_gauge : gauge -> int -> unit
(** Deltas may be negative (queue depths, in-flight counts). *)

val gauge_value : gauge -> int

(** {1 Probes} *)

val register_probe : ?labels:(string * string) list -> string -> (unit -> float) -> unit
(** [register_probe name f] samples [f ()] at every [dump]. Registering an
    existing identity replaces the callback. The callback runs outside the
    registry lock, so it may take its own locks; it must not call back into
    the registry. *)

(** {1 Histograms} *)

type histogram

val histogram :
  ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** Get or create. [buckets] are strictly increasing upper bounds (default:
    latency buckets in seconds, 10µs .. 10s, roughly log-spaced); an
    implicit [+Inf] bucket is appended. [buckets] is only consulted on
    creation — later callers inherit the creator's bounds. *)

val observe : histogram -> float -> unit
(** Record one observation. The bucket count is exact; the running sum is
    kept in fixed-point microunits (1e-6), ample for latencies and sizes. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val quantile : histogram -> float -> float
(** Nearest-rank quantile estimated from the bucket bounds: the upper bound
    of the bucket holding the rank ([infinity] when it lands in the
    overflow bucket, [nan] when the histogram is empty). *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] (even when it raises) and records the wall
    time into the histogram [phom_span_seconds{span=name}]. When metrics
    are disabled this is exactly [f ()]. *)

val span_steps : string -> int -> unit
(** Record budget steps consumed under span [name] into the counter
    [phom_span_budget_steps_total{span=name}]. Callers that run under a
    budget pair this with {!span}: the registry is dependency-free, so it
    cannot read budget tokens itself. *)

(** {1 Readout} *)

val dump_lines : unit -> string list
(** Prometheus text-format lines, sorted by metric name. Counters and
    gauges render as [name{labels} value]; histograms render cumulative
    [_bucket{le="..."}] lines, [_count], [_sum], and p50/p90/p99
    [{quantile="..."}] lines. *)

val dump : unit -> string
(** [dump_lines] joined with newlines, trailing newline included. *)

val reset : unit -> unit
(** Zero every counter, gauge, and histogram (probes are left alone — they
    sample live state owned elsewhere). For tests and benches. *)
