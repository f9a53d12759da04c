(** Shared infrastructure for reproducing the paper's figures: network
    construction matching §VI-A, figure/series data structures, and a
    plain-text table renderer used by the bench harness and the CLI. *)

type series = {
  label : string;
  points : (float * float) list;  (** (x, y), in x order *)
}

type figure = {
  id : string;          (** e.g. "fig5a" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  notes : string list;  (** deviations, parameters, expectations *)
}

val render : Format.formatter -> figure -> unit
(** Aligned table: one row per x value, one column per series. *)

val render_all : Format.formatter -> figure list -> unit

val to_csv : figure -> string
(** RFC-4180-style CSV: header [x,label1,label2,…], one row per x value,
    empty cells for missing points; the title and notes as ["# "]
    comment lines. *)

val ensure_dir : string -> unit
(** Create a directory and any missing parents ([mkdir -p]). *)

val write_csv : dir:string -> figure -> string
(** Write [to_csv] into [dir/<figure id>.csv] (creating [dir] and any
    missing parents if needed) and return the path. *)

val gtitm_like : Topology.Rng.t -> n:int -> Topology.Topo.t
(** A GT-ITM-style random topology of [n] switches with a size-independent
    average degree (≈ 4–6): Waxman with [alpha = 20/n]. *)

val network : Topology.Rng.t -> n:int -> Sdn.Network.t
(** [gtitm_like] plus resources and 10 % random servers (§VI-A). *)

val geant_network : Topology.Rng.t -> Sdn.Network.t
(** GÉANT with its nine paper-specified server locations. *)

val as1755_network : Topology.Rng.t -> Sdn.Network.t
(** The AS1755 stand-in with 10 % random servers. *)

val as4755_network : Topology.Rng.t -> Sdn.Network.t

val time_of : (unit -> 'a) -> 'a * float
(** Result and elapsed seconds per [Nfv_obs.Obs.clock] (default
    [Sys.time], process CPU time). Under [--jobs N] the default clock
    charges a region with CPU burnt by sibling domains too, so treat
    parallel-run wall-clock totals as upper bounds — or install the
    fake clock for determinism checks. *)

val install_fake_clock : unit -> unit
(** Replace [Nfv_obs.Obs.clock] (the one process clock, also read by
    {!time_of}) with a deterministic per-domain tick counter (one tick
    of 2{^-13} s ≈ 0.12 ms per read, domain-local state; the dyadic
    tick keeps clock differences — and histogram sums of them — exact
    in floating point). The ticks a measured region consumes then
    depend only on the code it runs, never on scheduling, which is what
    makes figure timing columns byte-identical across [--jobs]
    settings. Process global and irreversible; meant for the
    determinism tests and [bench --fake-clock]. *)

val mean : float list -> float
(** 0 on the empty list. *)
