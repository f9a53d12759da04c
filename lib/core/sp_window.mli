(** Window-scoped shortest-path engine cache for batched admission.

    The online algorithms price each request with a per-request weight
    function and run lazy Dijkstras through {!Mcgraph.Sp_engine}. Before
    this module each admit created a {e fresh} engine, so cached trees
    never survived from one request to the next even when nothing about
    the network had changed — exactly the case after a rejection, which
    leaves {!Sdn.Network.weight_epoch} untouched. A window is created
    once per admission run ({!Admission.run}, {!Batch.plan}) and hands
    each admit an engine that persists across requests; only an
    [allocate]/[release]/[reset] that actually bumps the epoch causes
    the engine's cached trees to be swept (by the epoch contract of
    {!Mcgraph.Sp_engine}).

    {2 Exactness contract}

    Sharing is exact, not heuristic: two admits may share an engine only
    when their weight functions are {e extensionally equal}. The cache
    key has two parts the caller must choose accordingly:

    - [family] encodes everything that distinguishes weight functions
      {e other} than bandwidth-feasibility pruning: the algorithm and
      mode, plus any parameter the closure reads (callers embed e.g.
      [Int64.bits_of_float beta] in the string when a numeric parameter
      scales the weights). Availability-aware pricing follows the same
      discipline: {!Online_cp.weight_family} appends an
      ["+avail:<stamp>:<alpha-bits>"] token whenever an
      {!Online_cp.avail} with [alpha > 0] is in force, so surcharged
      and baseline weight functions never share an engine, and two
      distinct partitions (distinct stamps) never alias even at equal
      [alpha]. The surcharge itself is a per-epoch constant per link
      (group exposures are recomputed only when the weight epoch
      bumps), so within one epoch the keyed closure stays extensionally
      stable — the exactness argument below is unchanged.
    - [bucket] encodes the bandwidth-feasibility pruning itself: weight
      functions price a link at infinity when
      [not (Sdn.Network.link_admits net e b)]. Within one epoch the
      pruned set is a monotone function of [b] (sets are nested), so two
      bandwidths prune identically iff the same number of link residuals
      lies below them — the integer {!bucket} computes.

    Equal [(family, bucket)] at an equal epoch therefore implies equal
    weights, which is the contract {!Mcgraph.Sp_engine.renew} needs to
    swap closures without dropping valid trees. With the key discipline
    above, every admission outcome is bit-identical to the fresh-engine
    behaviour this module replaces.

    {2 Static engines}

    Some weight families read no residual at all: uncapacitated
    [Appro_Multi] prices a link at [b·c_e] with nothing pruned. For
    those, {!static_engine} hands out an engine created {e without} the
    network's weight epoch, so allocate, release and fault confiscation
    never evict its trees; the key is the family alone (no bucket, since
    nothing is pruned). {b Contract:} a static engine's weight function
    is a pure function of the edge id and the network's static inputs
    (link unit costs, server list, chain costs) — it reads no residual
    and no [link_admits]. Two acquisitions under one family must pass
    extensionally equal weights; the caller encodes every parameter the
    closure reads (e.g. the bandwidth's bits) in [family].

    {2 Price memo}

    The window also memoises static request prices ({!find_price},
    {!store_price}) for {!Appro_multi.price}. Its lifetime is the
    window's (one per {!Dynamic.run} or {!Batch.plan}); it holds one
    entry per distinct [(request id, k)] priced through the window, and
    an entry answers only a request structurally equal to the one it was
    stored for, so a reused id cannot alias. *)

type t
(** A per-(network, admission-window) engine cache. *)

type stats = {
  engines : int;       (** distinct engines created: (family, bucket)
                           keys plus static families *)
  acquisitions : int;  (** {!engine} and {!static_engine} calls served *)
  reuses : int;        (** acquisitions answered by an existing engine *)
}

val create : Sdn.Network.t -> t
(** A fresh window over [net]; no engines until the first {!engine}. *)

val net : t -> Sdn.Network.t

val bucket : t -> bandwidth:float -> int
(** The bandwidth's feasibility class under the current residuals:
    [|{e : not (link_admits net e bandwidth)}|], computed by binary
    search over a per-epoch sorted residual snapshot (rebuilt lazily on
    epoch change). Bit-compatible with [Sdn.Network.link_admits]'s
    tolerance. *)

val engine :
  t -> family:string -> bucket:int -> weight:(int -> float) -> Mcgraph.Sp_engine.t
(** [engine t ~family ~bucket ~weight] is the window's engine for the
    key [(family, bucket)], created on first use and re-armed with
    [weight] (see {!Mcgraph.Sp_engine.renew}) on reuse. The caller
    guarantees the keying discipline of the module header. Telemetry:
    [sp_window.engine_creates] / [sp_window.engine_reuses]. *)

val static_engine :
  t -> family:string -> weight:(int -> float) -> Mcgraph.Sp_engine.t
(** [static_engine t ~family ~weight] is the window's epoch-free engine
    for [family] (see {e Static engines} above), created on first use
    and re-armed with [weight] on reuse. Its trees survive every
    allocate, release and confiscation on the network, so it records no
    evictions. Shares {!stats} and the [sp_window.*] telemetry with
    {!engine}. *)

val find_price : t -> k:int -> Sdn.Request.t -> float option
(** The price stored for [(r.id, k)], if the stored request is
    structurally equal to [r]. *)

val store_price : t -> k:int -> Sdn.Request.t -> float -> unit
(** Record [r]'s price under [(r.id, k)], replacing any earlier entry
    for that key. *)

val stats : t -> stats
(** Lifetime acquisition counters of this window (always live, not
    gated on [Nfv_obs.Obs.enabled]). *)
