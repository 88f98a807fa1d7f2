(** A lock-free metrics registry: named, optionally-labeled counters,
    gauges and fixed-bucket latency histograms.

    Everything on the hot path is a single [Atomic] operation — no mutex
    is ever taken to record ({!incr}, {!add}, {!observe_ms}); the
    registry's mutex guards only metric {e creation} and {!rows}
    snapshots, which happen once per metric / once per dump.  Counters
    are therefore exact under any number of domains hammering
    concurrently ([Atomic.fetch_and_add] loses no increments), which the
    property tests in [test_obs.ml] pin down.

    Handles ({!counter}, {!gauge}, {!histogram}) are meant to be looked
    up once — at module initialisation or structure creation — and kept;
    recording through a handle never touches the registry again.

    {!set_enabled} is a process-wide switch that turns every recording
    operation into a branch-and-return — the "no-op registry" the bench
    harness compares against when measuring instrumentation overhead
    (EXP-OBS).  It is not meant for steady-state use: while disabled,
    counters that back functional stats surfaces (e.g. cache hit/miss
    views) stop advancing too. *)

type t
(** A registry: a namespace of metrics dumped together. *)

val create : unit -> t

val global : t
(** The process-wide registry the library layers (hom, parallel, search)
    register into.  Servers keep their own per-instance registry for
    request metrics — tests pin exact per-router counts — and merge
    [global] in when dumping. *)

val set_enabled : bool -> unit
(** Process-wide recording switch (default on).  Affects every registry. *)

val is_enabled : unit -> bool

(** {2 Counters} *)

type counter

val counter : ?labels:(string * string) list -> t -> string -> counter
(** Find or create.  Labels are an unordered key set: the same name with
    the same label bindings in any order yields the same counter.
    Raises [Invalid_argument] if the name+labels already belong to a
    different metric kind. *)

val fresh_counter : unit -> counter
(** A counter attached to no registry — for per-worker or per-cache
    tallies that are aggregated or surfaced elsewhere.  Attach it later
    with {!register_counter} if it should appear in dumps. *)

val register_counter :
  ?labels:(string * string) list -> t -> string -> counter -> unit
(** Expose an existing counter under [name] in [t].  Raises
    [Invalid_argument] if the slot is already taken by a different
    metric. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : ?labels:(string * string) list -> t -> string -> gauge
val gauge_set : gauge -> int -> unit

val gauge_add : gauge -> int -> unit
(** Negative deltas decrement — an in-flight gauge is
    [gauge_add g 1] / [gauge_add g (-1)]. *)

val gauge_value : gauge -> int

(** {2 Histograms}

    Fixed upper-bound buckets (milliseconds) plus an overflow bucket;
    each observation is two-three atomic adds (bucket, sum, max).
    Quantiles are read from a bucket snapshot: the reported p50/p95/p99
    is the upper edge of the bucket holding that rank, clamped to the
    observed maximum — within one bucket of the exact order statistic by
    construction (the oracle bound [test_obs.ml] checks) and never above
    the max — and an overflow-bucket rank reports the maximum itself. *)

type histogram

val default_latency_buckets_ms : float array
(** 1µs .. 10s, roughly logarithmic. *)

val histogram :
  ?labels:(string * string) list -> ?buckets:float array -> t -> string ->
  histogram
(** [buckets] must be strictly increasing and positive (defaults to
    {!default_latency_buckets_ms}); it is only consulted on creation —
    a later lookup of an existing histogram ignores it. *)

val fresh_histogram : ?buckets:float array -> unit -> histogram

val observe_ms : histogram -> float -> unit
(** Record one duration in milliseconds.  Negative and non-finite values
    clamp to 0. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration, whether it
    returns or raises. *)

type summary = {
  count : int;
  sum_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val summary : histogram -> summary
val quantile_ms : histogram -> float -> float
(** [quantile_ms h q] for [q] in [0,1]; 0 when the histogram is empty. *)

(** {2 Dumping} *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of summary

type row = { name : string; labels : (string * string) list; value : value }

val rows : t -> row list
(** A consistent-enough snapshot (each metric is read atomically; the
    set is read under the registry mutex), sorted by name then labels —
    dumps are deterministic given deterministic traffic. *)

val render_table : row list -> string
(** The human table behind [bagcq metrics]: one line per row, histograms
    summarised as count/quantiles/max. *)
