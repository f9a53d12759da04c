(** Restoration policy engine — how the dynamic simulator's proactive
    re-admission pass selects from the dropped-session backlog.

    When a fault drops a session that no {!Repair} tier can restore, its
    request enters a backlog until its natural departure time passes.
    Returned capacity (a heal, or optionally a departure) triggers a
    restoration pass that re-attempts the backlog through
    {!Admission.admit_tree} — and the order of those attempts decides
    who gets the scarce returned capacity. This module makes that order
    (and the trigger set) a first-class policy instead of the
    hard-coded [Batch.Smallest_first] replay the pass shipped with:
    related work frames restoration as a value-maximisation problem
    under shared capacity (service overlay forest embedding, the NFV
    service distribution problem), so the selection rule deserves to be
    a measured treatment, not a constant.

    {2 Determinism}

    [select] is a pure function of the network state, the backlog and
    the policy: candidates are pre-sorted by request id before any
    policy-specific stable sort, so equal keys always resolve to
    ascending request ids regardless of backlog hashtable layout — the
    same contract the hard-coded pass honoured. No policy draws
    randomness; runs replay bit-identically for a fixed
    (network, trace, faults) triple. *)

(** What the knapsack greedy counts as a backlog entry's value. *)
type value =
  | Volume  (** bandwidth × terminal count — restore the most traffic *)
  | Priced
      (** bandwidth × terminal count per unit admission price, priced
          with {!Appro_multi.price} (one uncapacitated solve, which
          reads no residual). Through the run's shared {!Sp_window}
          each distinct request is solved once per run, not once per
          pass. Unpriceable requests (no feasible tree) score zero and
          sort last, so an infeasible entry can never wedge the pass *)

(** How a restoration pass orders the backlog. *)
type policy =
  | Replay of Batch.order
      (** exactly the historical behaviour: id-sorted backlog through
          {!Batch.reorder} under the given order *)
  | Knapsack of value
      (** value-density greedy against the estimate of just-returned
          capacity: entries whose footprint fits the returned headroom
          rank before entries that overshoot it, and within each class
          higher density goes first *)
  | Deadline
      (** least remaining lifetime first — sessions about to naturally
          depart are restore-now-or-never, so they are not wasted
          attempts at the back of the queue *)

(** Which events trigger a restoration pass. *)
type trigger =
  | Heal  (** [Link_up]/[Server_up] only — the historical trigger set *)
  | Heal_or_depart
      (** also after every resource-releasing departure, so a nonempty
          backlog cannot starve on a heal-free tail of the timeline *)

type t = {
  policy : policy;
  trigger : trigger;
}

val default : t
(** [{ policy = Replay Batch.Smallest_first; trigger = Heal }] — the
    configuration provably bit-identical to the pre-policy pass
    (pinned in [test/test_restore.ml]). *)

val make : ?policy:policy -> ?trigger:trigger -> unit -> t
(** Defaults are {!default}'s fields. *)

val policy_to_string : policy -> string
(** ["replay-<order>"], ["knapsack-volume"], ["knapsack-priced"] or
    ["deadline"] — stable labels for CSV series and CLI output. *)

val trigger_to_string : trigger -> string
(** ["heal"] or ["heal-or-depart"]. *)

val to_string : t -> string
(** [policy_to_string], with ["+depart"] appended under
    [Heal_or_depart]. *)

val on_depart : t -> bool
(** Whether the trigger set includes departures. *)

type entry = {
  request : Sdn.Request.t;
  depart_at : float;
      (** the session's scheduled natural departure time ([infinity]
          when unknown); only {!Deadline} reads it, and only its order
          matters — the pass time cancels out of the comparison *)
}

val select :
  ?k:int ->
  ?window:Sp_window.t ->
  returned:float ->
  Sdn.Network.t ->
  t ->
  entry list ->
  Sdn.Request.t list
(** The attempt order for one restoration pass. [returned] is the
    pass's estimate of just-returned bandwidth (the healed link's
    confiscation, or a departing session's summed link allocation);
    only {!Knapsack} reads it, classifying entries as fitting
    ([Batch.footprint] ≤ [returned], with relative ULP slack) or
    overshooting. A [Server_up] heal returns compute rather than
    bandwidth, so its passes run with [returned = 0.] and the knapsack
    degenerates to pure density order — still deterministic, just
    unclassified. [window] lets {!Priced} (and [Replay Cheapest_first])
    answer repeat prices from the surrounding run's memo and share its
    static shortest-path engines; without it every entry is solved.

    [select t] with [t = default] returns exactly
    [Batch.reorder ?k ?window net (id-sorted requests)
     Batch.Smallest_first] — the bit-identity anchor. *)
