"""Which functions of ``src/repro`` the traced run times, and their layers.

Layers, by module:

``core``               ``repro.core.evaluation``, ``repro.core.bitpacked``
                       (span names ``vectors`` - building and packing test
                       vectors - and ``evaluate`` - applying a network and
                       checking sortedness)
``properties``         the property checkers (the program's ``sorter`` /
                       ``apply_test_set`` spans)
``cache``              ``repro.cache`` (``lookup``, ``key``, ``restore``)
``faults.injection``   fault-universe enumeration
``faults.simulation``  the program's ``simulate`` / ``matrix`` spans
``faults.diagnosis``   the program's ``dictionary`` / ``resolution`` /
                       ``adaptive_order`` spans
``api``                ``Session`` methods (``session``) and the result wire
                       format (``serialize`` / ``deserialize``)
``serve``              ``protocol``, ``service``, ``jobstore``, ``client``

A spec names the module whose *global* is swapped: ``from x import f``
gives the importing module its own binding, so the calling module is the
one to patch.  ``repro.parallel`` is deliberately absent: every Session of
the benchmark runs ``workers=1``.
"""

from __future__ import annotations

from typing import Any

from .tracing import Recorder, SpanRecord, WrapSpec

#: Session workload methods (each one an ``api`` span plus the program trace).
SESSION_METHODS = ("verify", "passes_test_set", "fault_coverage", "diagnose")

#: Fault-universe builders and the modules that call them.
_ENUMERATORS = (
    ("repro.faults.injection", "enumerate_single_faults"),
    ("repro.faults.injection", "enumerate_model_faults"),
    ("repro.faults.injection", "enumerate_multi_faults"),
    ("repro.faults", "enumerate_single_faults"),
    ("repro.faults", "enumerate_model_faults"),
    ("repro.serve.protocol", "enumerate_single_faults"),
    ("repro.serve.protocol", "enumerate_model_faults"),
)


def _graft_program_trace(
    recorder: Recorder, args: Any, kwargs: Any, result: Any, span: SpanRecord
) -> None:
    recorder.add_program_trace(result.execution.trace, span.op)


def core_specs() -> list[WrapSpec]:
    """Vector building/packing and packed evaluation, at every call site."""
    vectors = [
        ("repro.properties.sorter", "unsorted_binary_words_array"),
        ("repro.properties.sorter", "packed_all_binary_words"),
        ("repro.properties.sorter", "pack_batch"),
        ("repro.cache.restore", "packed_all_binary_words"),
        ("repro.faults.simulation", "packed_cube_range"),
        ("repro.faults.simulation", "_pack_vectors"),
        ("repro.faults.simulation", "words_to_array"),
        ("repro.testsets.validation", "words_to_array"),
        ("repro.core.bitpacked", "pack_batch"),
    ]
    evaluate = [
        ("repro.properties.sorter", "apply_network_packed"),
        ("repro.properties.sorter", "packed_unsorted_blocks"),
        ("repro.cache.restore", "apply_comparators_packed"),
        ("repro.cache.restore", "packed_is_sorted_arena"),
        ("repro.core.bitpacked", "packed_is_sorted_arena"),
        ("repro.faults.simulation", "PrefixStates.build"),
    ]
    return [WrapSpec(m, a, "core", "vectors") for m, a in vectors] + [
        WrapSpec(m, a, "core", "evaluate") for m, a in evaluate
    ]


def cache_specs() -> list[WrapSpec]:
    """Result-cache lookups, key hashing and prefix restores."""
    lookups = [
        f"ResultCache.{name}"
        for name in ("get_verdict", "put_verdict", "get_input", "put_input",
                     "prefix_lookup", "prefix_store")
    ]
    specs = [WrapSpec("repro.cache.store", a, "cache", "lookup") for a in lookups]
    specs += [
        WrapSpec("repro.cache.restore", a, "cache", "key")
        for a in ("comparator_codes", "prefix_hashes", "network_token")
    ]
    specs += [
        WrapSpec("repro.cache.restore", a, "cache", "restore")
        for a in ("cached_cube_sorted", "acquire_prefix_states", "_running_after")
    ]
    return specs


def fault_specs() -> list[WrapSpec]:
    """Fault-universe enumeration (the simulator is timed by program spans)."""
    return [
        WrapSpec(module, attr, "faults.injection", "enumerate")
        for module, attr in _ENUMERATORS
    ]


def setup_specs() -> list[WrapSpec]:
    """What an in-process workload's set-up calls: enumeration, also through
    the names :mod:`pbench.inprocess` imported."""
    return in_process_specs() + [
        WrapSpec("pbench.inprocess", attr, "faults.injection", "enumerate")
        for attr in ("enumerate_single_faults", "enumerate_model_faults")
    ]


def session_specs() -> list[WrapSpec]:
    """The Session facade; each call also merges its ``ExecutionInfo.trace``."""
    return [
        WrapSpec(
            "repro.api.session", f"Session.{method}", "api", "session",
            after=_graft_program_trace,
        )
        for method in SESSION_METHODS
    ]


def in_process_specs() -> list[WrapSpec]:
    """Everything a Session call reaches in this process."""
    return core_specs() + cache_specs() + fault_specs() + session_specs()


class ServerOps:
    """Maps server-side calls to the job id that identifies the op.

    ``submit`` returns the job id; the request object it stored is later
    handed to ``_execute`` in an executor thread, so its ``id`` links the
    two.
    """

    def __init__(self) -> None:
        self.job_of_request: dict[int, str] = {}

    def submitted(self, args: Any, kwargs: Any, result: Any) -> str:
        service, job_id = args[0], result[0]
        self.job_of_request[id(service._jobs[job_id].request)] = job_id
        return job_id

    def executing(self, args: Any, kwargs: Any, result: Any) -> Any:
        return self.job_of_request.get(id(args[2]))


def _job_id_arg(args: Any, kwargs: Any, result: Any) -> Any:
    return args[1] if len(args) > 1 else kwargs.get("job_id")


def _job_id_result(args: Any, kwargs: Any, result: Any) -> Any:
    return result


def _job_of_job_arg(args: Any, kwargs: Any, result: Any) -> Any:
    return args[1].job_id


def _job_id_in_payload(args: Any, kwargs: Any, result: Any) -> Any:
    payload = args[0]
    return payload.get("job_id") if isinstance(payload, dict) else None


def server_specs(ops: ServerOps) -> list[WrapSpec]:
    """What the service process runs per job, on top of :func:`in_process_specs`."""
    service = "repro.serve.service"
    jobstore = [
        ("JobStore.create", _job_id_result),
        ("JobStore.write_status", _job_id_arg),
        ("JobStore.write_result_text", _job_id_arg),
        ("JobStore.write_trace_text", _job_id_arg),
        ("JobStore.read_result_text", _job_id_arg),
    ]
    return in_process_specs() + [
        WrapSpec(service, "decode_message", "serve", "validate"),
        WrapSpec("repro.serve.protocol", "JobRequest.from_dict", "serve", "validate"),
        WrapSpec("repro.serve.protocol", "JobRequest.content_key", "serve", "validate"),
        WrapSpec(service, "VerificationService.submit", "serve", "submit",
                 op_of=ops.submitted),
        WrapSpec(service, "VerificationService._execute", "serve", "execute",
                 op_of=ops.executing),
        WrapSpec(service, "VerificationService._job_trace", "serve", "job_trace",
                 op_of=_job_of_job_arg),
        WrapSpec(service, "VerificationService.job_payload", "serve", "view",
                 op_of=_job_id_arg),
        WrapSpec(service, "encode_message", "serve", "encode",
                 op_of=_job_id_in_payload),
        WrapSpec("repro.api.results", "_WireFormat.to_json", "api", "serialize"),
    ] + [
        WrapSpec("repro.serve.jobstore", attr, "serve", "jobstore", op_of=op_of)
        for attr, op_of in jobstore
    ]


def client_specs() -> list[WrapSpec]:
    """The client side of a service round trip."""
    return [
        WrapSpec("repro.serve.client", "encode_message", "serve", "client"),
        WrapSpec("repro.serve.client", "decode_message", "serve", "client"),
        WrapSpec("repro.serve.client", "ServeClient.decode_result", "api",
                 "deserialize"),
    ]
