"""The package's public surface: what the controller and its harness run."""
import dlmpc

# test-side references since the controller stopped exporting them (see ``oracles``)
MOVED = (
    "Region",
    "RowProblem",
    "RowSolution",
    "solve_row",
    "solve_rows",
    "response_from_controller",
    "full_response_from_controller",
    "controller_from_response",
)


def test_every_export_resolves_once():
    assert len(set(dlmpc.__all__)) == len(dlmpc.__all__)
    for name in dlmpc.__all__:
        assert hasattr(dlmpc, name), name
    assert not [name for name in MOVED if name in dlmpc.__all__ or hasattr(dlmpc, name)]
