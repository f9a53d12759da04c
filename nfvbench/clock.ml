(* Wall time in seconds, from the monotonic clock at nanosecond
   resolution (gettimeofday's double loses resolution to the epoch). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
