"""Unit tests for the field-free peel's module on its own, with no encoder."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from airindex import _peel
from airindex._peel import _Cells, _cut


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
        bounds = cells.col_bounds
        assert bounds.shape == (n, 2)
        assert (bounds[:, 1] - bounds[:, 0]).tolist() == self.M.sum(axis=0).tolist()

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
