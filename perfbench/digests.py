"""Cell digests: what the benchmark checks every simulated result against.

A digest is a short SHA-256 over everything a ``RunResult`` measured:
the cell's identity (workload, machine, policies, seed), the full
counter bank, cycles and the page statistics.  Host diagnostics
(``host_seconds``, ``scalar_bailouts``, ``observation``) are left out,
exactly as result equality leaves them out.

``golden.json`` holds the digest of every cell of every workload at
the committed seed, in the order the cells are simulated.  At that
seed a run is correct only when every cell matches; at any other seed
the benchmark prints each workload's combined digest so that two
commits can be compared by hand.
"""

import hashlib
import json
import pathlib

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")

#: Result fields a digest covers, besides the counter bank.
RESULT_FIELDS = (
    "workload", "config_name", "memory_bytes", "dirty_policy",
    "reference_policy", "seed", "references", "cycles", "page_ins",
    "page_outs", "zero_fills", "potentially_modified", "not_modified",
)

#: Counter events that, summed, count every reference exactly once.
REFERENCE_EVENTS = ("INSTRUCTION_FETCH", "PROCESSOR_READ", "PROCESSOR_WRITE")


def cell_digest(result):
    """16-hex-digit digest of one result's measured content."""
    record = {name: getattr(result, name) for name in RESULT_FIELDS}
    record["events"] = sorted(
        (event.name, count) for event, count in result.events.items()
        if count
    )
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def combined_digest(digests):
    """One digest over a whole workload's ordered cell digests."""
    return hashlib.sha256(
        ",".join(digests).encode("utf-8")
    ).hexdigest()[:16]


def invariant_errors(result):
    """Seed-independent consistency checks on one result.

    The counter bank must account for every reference once, and a
    reference costs at least one cycle.
    """
    errors = []
    counted = sum(
        count for event, count in result.events.items()
        if event.name in REFERENCE_EVENTS
    )
    if counted != result.references:
        errors.append(
            f"reference events sum to {counted}, "
            f"not {result.references} references"
        )
    if result.references <= 0 or result.cycles < result.references:
        errors.append(
            f"{result.cycles} cycles for {result.references} references"
        )
    if any(count < 0 for count in result.events.values()):
        errors.append("negative counter")
    return errors


def load_golden(path=GOLDEN_PATH):
    """The committed golden record, or ``None`` if none is committed."""
    try:
        return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None


def mismatched_cells(digests, expected):
    """Indices of cells whose digest differs from *expected*.

    A cell missing on either side counts as mismatched.
    """
    length = max(len(digests), len(expected))
    return [
        index for index in range(length)
        if index >= len(digests) or index >= len(expected)
        or digests[index] != expected[index]
    ]
