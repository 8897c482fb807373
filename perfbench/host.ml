(* Host-speed calibration.  On a shared VM the speed of a vCPU drifts
   by up to 1.6x in phases of tens of seconds (other tenants), for wall
   and CPU time alike and for every workload at once, so raw timings of
   the same code spread across runs by more than any useful bound.  The
   benchmark therefore times a fixed kernel right before and right after
   every timed region and reports that region's times scaled to a
   reference host: a time [t] measured while the kernel took [k] seconds
   on average is reported as [t *. reference_s /. k].  Each side takes
   the fastest of three timings: a timing only gets slower when another
   thread (the daemon's, on the service) or the scheduler's tick takes
   the vCPU from it, so the fastest is the host's speed.

   The kernel is the benchmark's own code and calls none of the
   program's: an in-place heap sort of a 4096-int array through a
   comparison closure, branchy integer code on a cache-resident working
   set.  Of the kernels tried beside the workloads' ops (a random walk
   over 1 MiB, a float dot product, list building, an allocation-free
   list emulation) its time followed the ops' times most closely.  It
   allocates nothing, so the state the program leaves in the OCaml heap
   cannot change its time. *)

(* The kernel's time on a quiet host: a 2-vCPU VM at its usual speed. *)
let reference_s = 0.004

let source = Array.init 4096 (fun i -> i * 2654435761 land 0xffffff)

let scratch = Array.make 4096 0

let sorts = 3

(* One timing of the kernel, in seconds. *)
let kernel () =
  let t0 = Util.now () in
  for _ = 1 to sorts do
    Array.blit source 0 scratch 0 4096;
    Array.sort (fun (a : int) b -> compare a b) scratch
  done;
  Util.now () -. t0

let fastest () = Float.min (kernel ()) (Float.min (kernel ()) (kernel ()))

(* [measure f] runs [f] between two timings of the kernel and returns
   its result with the factor that scales times taken during it to the
   reference host. *)
let measure f =
  let before = fastest () in
  let r = f () in
  let after = fastest () in
  (r, 2.0 *. reference_s /. (before +. after))

(* The first timings after start-up read slow (page faults, cold
   caches); run a few before anything is measured. *)
let warm () =
  for _ = 1 to 5 do
    ignore (kernel ())
  done
