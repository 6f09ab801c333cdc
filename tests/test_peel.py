"""Unit tests for the field-free peel's module on its own, with no encoder."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from airindex import _peel
from airindex._peel import _Cells, _cut, _window_counts
from airindex.air import _block_cells


def test_imports_nothing_from_the_package():
    # the codec imports air, so for air to use the peel, the peel may
    # import neither of them: no import names airindex or a relative module
    tree = ast.parse(Path(_peel.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        assert all(name.split(".")[0] != "airindex" for name in names), ast.unparse(node)


class TestCells:
    # a 5x4 0/1 matrix that is not an AIR matrix, its every row and column
    # holding a one, read straight from its nonzeros
    M = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0]])

    def _cells(self, order=slice(None)):
        rows, cols = np.nonzero(self.M)
        return _Cells.from_nonzero(rows[order], cols[order], *self.M.shape)

    def test_dense_rows_and_column_widths(self):
        cells = self._cells()
        m, n = self.M.shape
        assert np.array_equal(cells.dense(np.arange(m)), self.M)
        assert np.array_equal(cells.dense([4, 0, 4]), self.M[[4, 0, 4]])
        assert cells.col_starts.shape == (n + 1,)
        assert np.diff(cells.col_starts).tolist() == self.M.sum(axis=0).tolist()

    def test_cells_in_any_order(self):
        cells, shuffled = self._cells(), self._cells(np.random.default_rng(5).permutation(10))
        for name, got in zip(_Cells._fields, shuffled):
            assert np.array_equal(got, getattr(cells, name)), name

    def test_cut_gives_each_cyclic_runs_rows(self):
        # every run of w rows from every start, those that wrap past the
        # last row back to row 0 included, cut from every column at once
        cells = self._cells()
        m, n = self.M.shape
        cols = np.arange(n)
        wrapped = 0
        for w in range(1, m + 1):
            for lo in range(m):
                run = [(lo + i) % m for i in range(w)]
                wrapped += lo + w > m
                q, off = _cut(cells, cols, np.full(n, lo), w)
                assert np.all(np.diff(q) >= 0)
                for c in range(n):
                    got = ((lo + off[q == c]) % m).tolist()
                    assert got == [r for r in run if self.M[r, c]], (w, lo, c)
        assert wrapped == 10

    def test_window_counts_read_from_the_dense_rows(self):
        # starts out of order, repeated and wrapping past the last row, so
        # nothing ties one window to the one before
        cells = self._cells()
        m, n = self.M.shape
        lo = np.array([3, 0, 4, 4, 1, 2])
        for w in range(1, m + 1):
            count, total = _window_counts(cells, lo, w)
            assert count.shape == total.shape == (lo.size * n,)
            for i, start in enumerate(lo):
                run = (start + np.arange(w)) % m
                got = slice(i * n, (i + 1) * n)
                assert count[got].tolist() == self.M[run].sum(axis=0).tolist(), (w, start)
                assert total[got].tolist() == (run @ self.M[run]).tolist(), (w, start)


def test_air_windows_hold_at_most_w_plus_n_minus_1_cells():
    # the bound that keeps each run's gathered window cells under twice
    # _PEEL_CELLS, for every window of every AIR matrix with m <= 60
    for m in range(1, 61):
        for n in range(1, m + 1):
            rows, cols = (np.concatenate(part) for part in zip(*_block_cells(m, n)))
            row_ptr = _Cells.from_nonzero(rows, cols, m, n).row_ptr
            w = np.arange(1, m + 1)[:, None]
            lo = np.arange(m)
            held = row_ptr[lo + w] - row_ptr[lo]
            assert (held <= w + n - 1).all(), (m, n)
