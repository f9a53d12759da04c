(* Host-speed probe: a xorshift walk over a 2 MB int array. It runs no
   library code, so when two runs of identical code disagree, a matching
   swing in the probe blames the host rather than the program.

   Run right after library work, the walk finds its array evicted from
   the core's 2 MB L2 (the library's working set is tens of MB), so it
   times random reads from the shared L3: the resource the host's other
   tenants contend for, and the one the library's own working set lives
   in. The timed run scales every duration by the probe taken right
   after it (a set-up by the median of the probes around it), so that
   its figures read as they would on a host where the probe takes
   [reference_ms]. *)

let words = 2 * 1024 * 1024 / 8
let steps = 1 lsl 19
let arena = lazy (Array.make words 0)

(* one walk; milliseconds of wall time *)
let run () =
  let a = Lazy.force arena in
  let mask = words - 1 in
  let t0 = Clock.now () in
  let x = ref 88172645463325252 in
  for _ = 1 to steps do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let i = v land mask in
    Array.unsafe_set a i (Array.unsafe_get a i + 1)
  done;
  (Clock.now () -. t0) *. 1000.0

(* the probe's median on the baseline host (see README.md) *)
let reference_ms = 4.0

(* [x], measured just before a probe that took [probe_ms], as it would
   read on the reference host *)
let at_reference ~probe_ms x = x *. reference_ms /. probe_ms
