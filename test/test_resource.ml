(* Tests for FIFO server resources. *)

open Eventsim

let test_free_resource_serves_immediately () =
  let r = Resource.create "r" in
  let finish = Resource.reserve r ~now:100 ~service:10 in
  Alcotest.(check int) "finish" 110 finish;
  Alcotest.(check int) "next_free" 110 (Resource.next_free r)

let test_busy_resource_queues () =
  let r = Resource.create "r" in
  let f1 = Resource.reserve r ~now:0 ~service:10 in
  let f2 = Resource.reserve r ~now:0 ~service:10 in
  let f3 = Resource.reserve r ~now:5 ~service:10 in
  Alcotest.(check int) "first" 10 f1;
  Alcotest.(check int) "second queued" 20 f2;
  Alcotest.(check int) "third queued" 30 f3

let test_idle_gap () =
  let r = Resource.create "r" in
  let f1 = Resource.reserve r ~now:0 ~service:5 in
  let f2 = Resource.reserve r ~now:100 ~service:5 in
  Alcotest.(check int) "first" 5 f1;
  Alcotest.(check int) "after a gap no queueing" 105 f2

let test_accounting () =
  let r = Resource.create "r" in
  ignore (Resource.reserve r ~now:0 ~service:10);
  ignore (Resource.reserve r ~now:0 ~service:10);
  Alcotest.(check int) "busy" 20 (Resource.busy_cycles r);
  Alcotest.(check int) "queued" 10 (Resource.queued_cycles r);
  Alcotest.(check int) "requests" 2 (Resource.n_requests r);
  Alcotest.(check (float 0.001)) "utilization" 0.5
    (Resource.utilization r ~horizon:40)

let test_reset () =
  let r = Resource.create "r" in
  ignore (Resource.reserve r ~now:0 ~service:10);
  Resource.reset r;
  Alcotest.(check int) "busy cleared" 0 (Resource.busy_cycles r);
  Alcotest.(check int) "requests cleared" 0 (Resource.n_requests r);
  Alcotest.(check int) "free now" 0 (Resource.next_free r)

let test_zero_service () =
  let r = Resource.create "r" in
  let f = Resource.reserve r ~now:7 ~service:0 in
  Alcotest.(check int) "instant" 7 f

let test_negative_service_rejected () =
  let r = Resource.create "r" in
  Alcotest.check_raises "negative"
    (Invalid_argument "Resource.reserve: negative service") (fun () ->
      ignore (Resource.reserve r ~now:0 ~service:(-1)))

let prop_fifo_completion_monotone =
  QCheck.Test.make
    ~name:"completions are non-decreasing for non-decreasing arrivals"
    ~count:200
    QCheck.(list (pair (int_bound 100) (int_bound 20)))
    (fun reqs ->
      let r = Resource.create "r" in
      let arrivals =
        List.sort compare (List.map fst reqs)
        |> List.map2 (fun (_, s) a -> (a, s)) reqs
      in
      let finishes =
        List.map (fun (now, service) -> Resource.reserve r ~now ~service)
          arrivals
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono finishes)

let prop_finish_at_least_now_plus_service =
  QCheck.Test.make ~name:"finish >= now + service" ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 50)))
    (fun reqs ->
      let reqs = List.sort compare reqs in
      let r = Resource.create "r" in
      List.for_all
        (fun (now, service) ->
          Resource.reserve r ~now ~service >= now + service)
        reqs)

let suite =
  [
    Alcotest.test_case "free resource serves immediately" `Quick
      test_free_resource_serves_immediately;
    Alcotest.test_case "busy resource queues FIFO" `Quick
      test_busy_resource_queues;
    Alcotest.test_case "idle gaps do not queue" `Quick test_idle_gap;
    Alcotest.test_case "busy/queued accounting" `Quick test_accounting;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "zero service" `Quick test_zero_service;
    Alcotest.test_case "negative service rejected" `Quick
      test_negative_service_rejected;
    Qc.to_alcotest prop_fifo_completion_monotone;
    Qc.to_alcotest prop_finish_at_least_now_plus_service;
  ]
