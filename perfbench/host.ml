(* Host speed, measured beside the work.

   The benchmark shares its machine: on a shared 2-vCPU virtual machine
   the same repetition of a workload took anywhere from 6.2 to 10.3 s in
   separate processes, and the speed changes from second to second within
   one, while a fixed allocation-heavy probe run between blocks of rounds
   slows in step.  So the work is timed against that probe: a short chunk
   runs after every block of rounds, and each block's time is scaled to a
   reference host on which one chunk takes [reference_s], by the chunks
   taken just before and just after it.  Over nine repetitions of
   [join-scan] in one process, the raw repetition time varied by 8.9%
   (standard deviation over mean), scaled by the median chunk of each
   repetition by 4.8%, and scaled block by block by 2.1%.

   The chunk allocates like the program does (map nodes, strings, and an
   array on the major heap) and uses nothing but the standard library, so
   no change to the program under test changes what it measures. *)

module IntMap = Map.Make (Int)

let reference_s = 1e-3

(* rounds between two chunks *)
let block = 20

let chunk () =
  let t0 = Telemetry.Clock.now () in
  let st = Random.State.make [| 1 |] in
  let m = ref IntMap.empty in
  for i = 1 to 3000 do
    m := IntMap.add (Random.State.int st 1_000_000) i !m
  done;
  let strings = List.init 4000 string_of_int in
  let a = Array.make 20_000 0 in
  Array.iteri (fun i _ -> a.(i) <- i) a;
  ignore (Sys.opaque_identity (IntMap.cardinal !m, List.length strings, a));
  Telemetry.Clock.now () -. t0

(* factor from this host's chunk times to the reference host's *)
let factor chunks =
  match chunks with [] -> 1. | _ -> reference_s /. Results.median chunks

(* Per-block factors, given the chunk taken after each block in order:
   block [j] ran between chunks [j - 1] and [j] and is scaled by their
   mean (the first block by the chunk after it alone). *)
let factors chunks =
  let c = Array.of_list chunks in
  Array.mapi
    (fun j after ->
      let before = if j = 0 then after else c.(j - 1) in
      reference_s /. ((before +. after) /. 2.))
    c

(* The blocks' wall times scaled block by block and summed. *)
let scaled ~blocks ~chunks =
  let f = factors chunks in
  List.fold_left ( +. ) 0. (List.mapi (fun j wall -> wall *. f.(j)) blocks)
