import csv
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptsmooth
from adaptsmooth import classifier, params_net, trainer
from adaptsmooth.cli import run
from adaptsmooth.gaussian_filter import build_filter, fwhm_mm_to_sigma
from adaptsmooth.volume_io import (
    Volume,
    read_config,
    read_manifest,
    read_volume,
    write_volume,
)

SMALL_SPEC = ("dims = 16,16,16\n"
              "n_subjects = 4\n"
              "volumes_per_subject_per_class = 3\n"
              "center_offset_x = 3\n"
              "blob_radius = 1.3\n"
              "noise_levels = 0.0,0.2\n"
              "split_counts = 2,1,1\n")


@pytest.fixture()
def sample_volume(tmp_path):
    rng = np.random.default_rng(0)
    v = Volume(rng.normal(0.5, 0.1, (10, 10, 10)).clip(0, 1), 3.0)
    path = tmp_path / "in.vol"
    write_volume(v, path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Generate a small dataset and train a model once for the eval tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    spec = root / "phantom.cfg"
    spec.write_text(SMALL_SPEC)
    assert run(["gen-phantom", "--spec", str(spec), "--out", str(data),
                "--seed", "3"]) == 0
    cfg = root / "train.cfg"
    cfg.write_text("learning_rate = 0.1\nmax_epochs = 15\nwidth_m = 8\n")
    out = root / "model"
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out", str(out), "--seed", "43"]) == 0
    return data, out


class TestSmooth:
    def test_both_width_flags_is_usage_error(self, sample_volume, tmp_path, capsys):
        code = run(["smooth", "--in", str(sample_volume), "--sigma-f", "1.0",
                    "--fwhm-mm", "8.0", "--out", str(tmp_path / "o.vol")])
        assert code == 1
        assert "ERROR 1" in capsys.readouterr().err

    def test_neither_width_flag_is_usage_error(self, sample_volume, tmp_path):
        assert run(["smooth", "--in", str(sample_volume),
                    "--out", str(tmp_path / "o.vol")]) == 1

    def test_matches_library_smoothing(self, sample_volume, tmp_path):
        out = tmp_path / "o.vol"
        assert run(["smooth", "--in", str(sample_volume), "--sigma-f", "1.0",
                    "--out", str(out)]) == 0
        got = read_volume(out)
        x = read_volume(sample_volume).data
        from adaptsmooth.conv3d import convolve_separable
        want = convolve_separable(x, build_filter(1.0, 4.0).profile_1d)
        # the VOL1 payload is float32, so the round trip costs precision
        np.testing.assert_allclose(got.data, want, atol=1e-6)

    def test_fwhm_flag_uses_voxel_size(self, sample_volume, tmp_path):
        o1, o2 = tmp_path / "a.vol", tmp_path / "b.vol"
        assert run(["smooth", "--in", str(sample_volume), "--fwhm-mm", "8.0",
                    "--out", str(o1)]) == 0
        assert run(["smooth", "--in", str(sample_volume), "--sigma-f", "1.13243",
                    "--out", str(o2)]) == 0
        np.testing.assert_allclose(read_volume(o1).data, read_volume(o2).data,
                                   atol=1e-6)

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["smooth", "--in", str(tmp_path / "nope.vol"),
                    "--sigma-f", "1.0", "--out", str(tmp_path / "o.vol")])
        assert code == 2
        assert "ERROR 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        "--sigma-f nan", "--sigma-f inf", "--fwhm-mm nan", "--fwhm-mm inf",
        "--sigma-f 1 --t nan", "--fwhm-mm 8 --voxel-mm nan",
        # --voxel-mm is refused with --sigma-f too, which never reads it (was exit 0)
        "--sigma-f 1 --voxel-mm nan", "--sigma-f 1 --voxel-mm -5",
    ])
    def test_non_finite_width_is_data_error(self, sample_volume, tmp_path, capsys,
                                            flags):
        out = tmp_path / "o.vol"
        assert run(["smooth", "--in", str(sample_volume), *flags.split(),
                    "--out", str(out)]) == 2
        assert "ERROR 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", ["--sigma-f 1e-300", "--fwhm-mm 1e-300"])
    def test_width_too_small_for_float64_is_data_error(self, sample_volume, tmp_path,
                                                       capsys, flags):
        # was a ZeroDivisionError traceback (exit 1)
        out = tmp_path / "o.vol"
        assert run(["smooth", "--in", str(sample_volume), *flags.split(),
                    "--out", str(out)]) == 2
        assert "the filter derivative does not fit float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", ["--sigma-f 1e12", "--sigma-f 1 --t 1e15"])
    def test_oversized_filter_is_data_error(self, sample_volume, tmp_path, capsys, flags):
        # was a MemoryError traceback: the profile alone asked for terabytes
        out = tmp_path / "o.vol"
        assert run(["smooth", "--in", str(sample_volume), *flags.split(),
                    "--out", str(out)]) == 2
        assert re.search(r"ERROR 2: .* filter side \d+ exceeds 10\n",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_nan_header_voxel_size_is_data_error(self, sample_volume, tmp_path,
                                                 capsys):
        blob = bytearray(sample_volume.read_bytes())
        blob[16:20] = struct.pack("<f", float("nan"))  # VOL1 voxel size field
        bad = tmp_path / "bad.vol"
        bad.write_bytes(bytes(blob))
        assert run(["smooth", "--in", str(bad), "--fwhm-mm", "8",
                    "--out", str(tmp_path / "o.vol")]) == 2
        assert "voxel size" in capsys.readouterr().err

    def test_runs_without_scipy(self, sample_volume, tmp_path):
        # scipy is not a runtime dependency: with its import blocked, the
        # CLI still smooths a volume and estimates its noise
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from adaptsmooth.cli import run\n"
                f"assert run(['smooth', '--in', {str(sample_volume)!r}, '--sigma-f', '1.0',"
                f" '--out', {str(tmp_path / 'o.vol')!r}]) == 0\n"
                f"assert run(['estimate-noise', '--in', {str(sample_volume)!r}]) == 0\n")
        src = str(Path(adaptsmooth.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o.vol").exists()


class TestInspectFilter:
    def test_single_cell_filter(self, capsys):
        assert run(["inspect-filter", "--sigma-f", "0.3"]) == 0
        out = capsys.readouterr().out.splitlines()
        head = out[0].split()
        assert float(head[0]) == 0.3 and int(head[2]) == 0
        assert float(out[1]) == 1.0
        assert "FWHM: 2.119 mm" in out[2]

    def test_weight_lines_count(self, capsys):
        assert run(["inspect-filter", "--sigma-f", "1.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 + 5 ** 3 + 1  # header, weights, FWHM line

    def test_invalid_sigma(self, capsys):
        assert run(["inspect-filter", "--sigma-f", "-1.0"]) == 2

    @pytest.mark.parametrize("flags", [
        "--sigma-f nan", "--sigma-f inf", "--sigma-f 1e308",
        "--sigma-f 1 --t nan", "--sigma-f 1 --t inf", "--sigma-f 1 --voxel-mm nan",
    ])
    def test_non_finite_input_is_data_error(self, capsys, flags):
        assert run(["inspect-filter", *flags.split()]) == 2
        out = capsys.readouterr()
        assert "ERROR 2" in out.err and out.out == ""


    def test_width_too_small_for_float64_is_data_error(self, capsys):
        assert run(["inspect-filter", "--sigma-f", "1e-300"]) == 2
        out = capsys.readouterr()
        assert "ERROR 2: sigma_f 1e-300 at t=4.0: the filter derivative" in out.err and out.out == ""

    LIMIT = adaptsmooth.cli.MAX_INSPECT_SIDE

    # at t = 4, sigma_f = (LIMIT + 1) / 4 has radius (LIMIT + 1) / 2, a side one
    # step past the limit (was dumped); a t of 1e15 asks for a profile no
    # machine can hold (was a MemoryError traceback)
    @pytest.mark.parametrize("flags", [f"--sigma-f {(LIMIT + 1) / 4}", "--sigma-f 1 --t 1e15"])
    def test_oversized_cube_is_data_error(self, capsys, flags):
        assert run(["inspect-filter", *flags.split()]) == 2
        out = capsys.readouterr()
        assert re.search(rf"ERROR 2: .* filter side \d+ exceeds {self.LIMIT}\n", out.err)
        assert out.out == ""


class TestNoiseCommands:
    def test_add_then_estimate(self, sample_volume, tmp_path, capsys):
        noisy = tmp_path / "noisy.vol"
        assert run(["add-noise", "--in", str(sample_volume), "--sigma", "0.3",
                    "--seed", "1", "--out", str(noisy)]) == 0
        assert run(["estimate-noise", "--in", str(noisy)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        est = float(lines[-1].split(":")[1])
        assert 0.22 <= est <= 0.38  # base volume contributes ~0.1 itself

    def test_add_noise_deterministic(self, sample_volume, tmp_path):
        a, b = tmp_path / "a.vol", tmp_path / "b.vol"
        for out in (a, b):
            assert run(["add-noise", "--in", str(sample_volume), "--sigma", "0.2",
                        "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["gen-phantom", "add-noise", "train",
                                         "grid-search"])
    def test_negative_seed_is_usage_error(self, sample_volume, tmp_path, capsys,
                                          command):
        argv = [command, "--seed", "-1", "--out", str(tmp_path / "out")]
        if command == "add-noise":
            argv += ["--in", str(sample_volume), "--sigma", "0.1"]
        if command in ("train", "grid-search"):
            argv += ["--data", str(tmp_path)]
        assert run(argv) == 1
        assert "ERROR 1: argument --seed" in capsys.readouterr().err

    def test_non_finite_noise_sigma_is_data_error(self, sample_volume, tmp_path,
                                                  capsys):
        out = tmp_path / "noisy.vol"
        assert run(["add-noise", "--in", str(sample_volume), "--sigma", "nan",
                    "--out", str(out)]) == 2
        assert "ERROR 2" in capsys.readouterr().err
        assert not out.exists()

    def test_float32_overflowing_sigma_is_data_error(self, sample_volume, tmp_path,
                                                     capsys):
        out = tmp_path / "noisy.vol"
        assert run(["add-noise", "--in", str(sample_volume), "--sigma", "1e300",
                    "--out", str(out)]) == 2
        assert "fit float32" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_voxels_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.vol"
        data = np.full(64, 0.5, dtype="<f4")
        data[37] = np.nan
        # written by hand: write_volume itself refuses a non-finite voxel
        path.write_bytes(b"VOL1" + struct.pack("<IIIf", 4, 4, 4, 3.0) + data.tobytes())
        assert run(["estimate-noise", "--in", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_smoothing_reduces_estimated_noise(self, sample_volume, tmp_path, capsys):
        noisy = tmp_path / "noisy.vol"
        smoothed = tmp_path / "smoothed.vol"
        assert run(["add-noise", "--in", str(sample_volume), "--sigma", "0.3",
                    "--seed", "2", "--out", str(noisy)]) == 0
        assert run(["estimate-noise", "--in", str(noisy)]) == 0
        before = float(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
        assert run(["smooth", "--in", str(noisy), "--sigma-f", "1.0",
                    "--out", str(smoothed)]) == 0
        assert run(["estimate-noise", "--in", str(smoothed)]) == 0
        after = float(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
        assert after < before / 2


class TestTrainEvaluate:
    def test_train_writes_artifacts(self, trained):
        _, out = trained
        for name in ("params_net.txt", "classifier.txt", "config.txt", "report.csv",
                     "summary.txt"):
            assert (out / name).exists()
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,val_accuracy"

    def test_evaluate_adaptive(self, trained, capsys):
        data, out = trained
        assert run(["evaluate", "--weights", str(out), "--data", str(data),
                    "--split", "test"]) == 0
        out_text = capsys.readouterr().out
        assert "mean sigma_f" in out_text
        assert "overall accuracy:" in out_text

    def test_evaluate_fixed_fwhm(self, trained, capsys):
        data, out = trained
        assert run(["evaluate", "--weights", str(out), "--data", str(data),
                    "--split", "test", "--fixed-fwhm-mm", "8.0"]) == 0
        out_text = capsys.readouterr().out
        assert "FWHM 8 mm fixed" in out_text
        assert "mean sigma_f" not in out_text

    @pytest.mark.parametrize("fwhm", ["nan", "inf"])
    def test_evaluate_non_finite_fixed_fwhm_is_data_error(self, trained, capsys,
                                                          fwhm):
        data, out = trained
        assert run(["evaluate", "--weights", str(out), "--data", str(data),
                    "--fixed-fwhm-mm", fwhm]) == 2
        assert "ERROR 2" in capsys.readouterr().err

    def test_evaluate_fixed_fwhm_too_small_for_float64_is_data_error(self, trained,
                                                                     capsys):
        data, out = trained
        assert run(["evaluate", "--weights", str(out), "--data", str(data),
                    "--fixed-fwhm-mm", "1e-300"]) == 2
        assert "the filter derivative does not fit float64" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line, text", [
        ("params_net.txt", 4, None),          # a line missing
        ("params_net.txt", 1, "0.1 x"),       # a token that is not a number
        ("params_net.txt", 0, "9"),           # M against the row lengths
        ("params_net.txt", 4, "nan"),         # a non-finite weight
        ("params_net.txt", 5, None),          # the width range missing
        ("params_net.txt", 5, "1.85 0.375"),  # lo above hi
        ("params_net.txt", 5, "0 1.85"),      # lo not positive
        ("classifier.txt", 0, "16 16 16.5"),  # non-integer dims
        ("classifier.txt", 0, "16 16 15"),    # dims against the weight count
        ("classifier.txt", 2, "nan"),         # a third row, the earlier layout's bias
    ])
    def test_evaluate_bad_checkpoint_is_data_error(self, trained, tmp_path, capsys,
                                                   name, line, text):
        data, model = trained
        bad = tmp_path / "model"
        shutil.copytree(model, bad)
        lines = (bad / name).read_text().splitlines()
        # delete, replace or, one past the last line, append it
        lines[line:line + 1] = [] if text is None else [text]
        (bad / name).write_text("\n".join(lines) + "\n")
        assert run(["evaluate", "--weights", str(bad), "--data", str(data)]) == 2
        assert f"ERROR 2: {bad / name}: " in capsys.readouterr().err

    def test_evaluate_config_with_bump_probability_is_data_error(self, trained, tmp_path,
                                                                  capsys):
        # a config.txt saved while training still bumped widths
        data, model = trained
        old = tmp_path / "model"
        shutil.copytree(model, old)
        with open(old / "config.txt", "a", encoding="utf-8") as f:
            f.write("bump_probability = 0.5\n")
        assert run(["evaluate", "--weights", str(old), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"ERROR 2: {old / 'config.txt'}:" in err
        assert "unknown key 'bump_probability'" in err

    def test_evaluate_missing_weights(self, trained, tmp_path, capsys):
        data, _ = trained
        assert run(["evaluate", "--weights", str(tmp_path), "--data",
                    str(data)]) == 2

    def test_evaluate_mixed_dims_is_data_error(self, trained, tmp_path, capsys):
        data, model = trained
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        first = sorted(copy.glob("sub03_*.vol"))[0]  # sub03 is the test subject
        write_volume(Volume(np.full((16, 16, 15), 0.5), 3.0), first)
        assert run(["evaluate", "--weights", str(model), "--data", str(copy)]) == 2
        assert "differ from the dataset's" in capsys.readouterr().err

    def test_evaluate_reads_only_its_split(self, trained, tmp_path, capsys):
        data, model = trained
        assert run(["evaluate", "--weights", str(model), "--data", str(data)]) == 0
        clean = capsys.readouterr().out
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        first = sorted(copy.glob("*.vol"))[0]  # sub00, a train subject
        write_volume(Volume(np.full((16, 16, 15), 0.5), 3.0), first)
        assert run(["evaluate", "--weights", str(model), "--data", str(copy),
                    "--split", "test"]) == 0
        assert capsys.readouterr().out == clean
        assert run(["evaluate", "--weights", str(model), "--data", str(copy),
                    "--split", "train"]) == 2
        assert f"{first.name}: dims (16, 16, 15) differ from the dataset's" \
            in capsys.readouterr().err

    def test_evaluate_mixed_voxel_sizes_is_data_error(self, trained, tmp_path, capsys):
        data, model = trained
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = sorted(copy.glob("sub03_*.vol"))[0]
        write_volume(Volume(read_volume(path).data, 2.0), path)
        assert run(["evaluate", "--weights", str(model), "--data", str(copy),
                    "--fixed-fwhm-mm", "8"]) == 2
        assert (f"ERROR 2: {path.name}: voxel size 2.0 mm differs from the "
                "dataset's 3.0 mm") in capsys.readouterr().err

    def test_evaluate_empty_split_is_data_error(self, trained, tmp_path, capsys):
        data, model = trained
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        manifest = copy / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if ",sub03," not in line))
        assert run(["evaluate", "--weights", str(model), "--data", str(copy),
                    "--split", "test"]) == 2
        assert "split 'test' is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("fwhm", [None, 8.0])
    @pytest.mark.parametrize("split", ["train", "validation", "test"])
    def test_evaluate_prints_full_load_result(self, trained, capsys, split, fwhm):
        data, model = trained
        flags = [] if fwhm is None else ["--fixed-fwhm-mm", f"{fwhm:g}"]
        assert run(["evaluate", "--weights", str(model), "--data", str(data),
                    "--split", split, *flags]) == 0
        printed = capsys.readouterr().out
        pnw = params_net.load_weights(model / "params_net.txt")
        cw, _ = classifier.load_weights(model / "classifier.txt")
        cfg = read_config(model / "config.txt", trainer.TrainConfig)
        batches = trainer.load_dataset(data / "manifest.csv")
        sigma = None if fwhm is None else fwhm_mm_to_sigma(fwhm, batches[0].voxel_size_mm)
        res = trainer.evaluate(pnw, cw, batches, split, cfg, sigma)
        table = trainer.noise_table(res["per_noise"],
                                    None if fwhm is None else f"FWHM {fwhm:g} mm")
        assert printed == "\n".join(table) + f"\noverall accuracy: {res['accuracy']:.3f}\n"
        part = trainer.load_dataset(data / "manifest.csv", split)
        assert trainer.evaluate(pnw, cw, part, split, cfg, sigma) == res

    def test_evaluate_reads_only_test_entries(self, trained, capsys, monkeypatch):
        data, model = trained
        reads = []

        def counting_read(path, *args):
            reads.append(path.name)
            return read_volume(path, *args)

        monkeypatch.setattr(trainer, "read_volume", counting_read)
        assert run(["evaluate", "--weights", str(model), "--data", str(data),
                    "--split", "test"]) == 0
        manifest = read_manifest(data / "manifest.csv")
        test = [e.path for e in manifest.entries if manifest.split[e.subject_id] == "test"]
        assert len(reads) == len(test) == 12
        assert sorted(reads) == sorted(test)

    @pytest.mark.parametrize("dims, flags", [
        ("16,16,20", ["--fixed-fwhm-mm", "8"]),  # was a reshape traceback
        ("16,32,8", []),  # as many voxels as the model: was exit 0
    ])
    def test_evaluate_model_dims_mismatch_is_data_error(self, trained, tmp_path, capsys,
                                                          dims, flags):
        _, model = trained
        spec = tmp_path / "spec.cfg"
        spec.write_text(SMALL_SPEC.replace("16,16,16", dims))
        data = tmp_path / "data"
        assert run(["gen-phantom", "--spec", str(spec), "--out", str(data)]) == 0
        assert run(["evaluate", "--weights", str(model), "--data", str(data), *flags]) == 2
        shape = dims.replace(",", ", ")
        assert f"model dims (16, 16, 16) differ from the data's ({shape})" \
            in capsys.readouterr().err

    def test_evaluate_oversized_fixed_fwhm_is_data_error(self, trained, capsys):
        # was a MemoryError traceback: the profile alone asked for terabytes
        data, model = trained
        assert run(["evaluate", "--weights", str(model), "--data", str(data),
                    "--fixed-fwhm-mm", "1e12"]) == 2
        out = capsys.readouterr()
        assert re.search(r"ERROR 2: .* filter side \d+ exceeds 16\n", out.err)
        assert out.out == ""

    def test_train_oversized_fixed_filter_is_data_error(self, trained, tmp_path, capsys):
        # was a MemoryError traceback: the profile alone asked for petabytes
        data, _ = trained
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("max_epochs = 1\nfixed_sigma = 1.0\ntruncation = 1e15\n")
        assert run(["train", "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "m")]) == 2
        assert re.search(r"ERROR 2: .* filter side \d+ exceeds 16\n",
                         capsys.readouterr().err)
        assert not (tmp_path / "m").exists()

    def test_train_fixed_sigma_too_small_for_float64_is_data_error(self, trained,
                                                                   tmp_path, capsys):
        data, _ = trained
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("max_epochs = 1\nfixed_sigma = 1e-300\n")
        assert run(["train", "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "m")]) == 2
        assert "the filter derivative does not fit float64" in capsys.readouterr().err

    def test_diverging_training_is_numerical_error(self, trained, tmp_path, capsys):
        data, _ = trained
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("learning_rate = 1e300\nmax_epochs = 2\nwidth_m = 8\n")
        # the first operation whose result overflows float64 ends the run
        # with exit 3 and no warning (the test config turns one into an error)
        code = run(["train", "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "m")])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"ERROR 3: overflow encountered in \w+ at epoch 1 "
                         r"\(subject \w+, noise [\d.]+\)", err), err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("fixed", [[], ["--fixed-fwhm-mm", "8"]])
    def test_evaluate_overflowing_weights_is_numerical_error(self, trained, tmp_path,
                                                            fixed):
        # finite weights whose logits overflow float64 end the command with
        # exit 3 naming the split, and no warning; run as a module, so the
        # exit status is the one main() passes to sys.exit
        data, model = trained
        weights = tmp_path / "w"
        shutil.copytree(model, weights)
        cw, dims = classifier.load_weights(weights / "classifier.txt")
        cw.w[:] = 1e305
        classifier.save_weights(cw, dims, weights / "classifier.txt")
        src = str(Path(adaptsmooth.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "adaptsmooth.cli", "evaluate", "--weights", str(weights),
             "--data", str(data), *fixed],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert result.returncode == 3, result.stderr
        assert re.search(r"ERROR 3: overflow encountered in \w+ evaluating the test split",
                         result.stderr), result.stderr
        assert "Warning" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["train", "grid-search"])
    def test_filter_wider_than_the_data_is_data_error(self, trained, tmp_path, capsys,
                                                      command):
        # no grid value can cause a data error, so grid-search stops at the
        # first one instead of recording it in every cell
        data, _ = trained
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("max_epochs = 2\nwidth_m = 8\nfixed_sigma = 50\n"
                       "lr_grid = 0.01,0.1\nlambda_grid = 0.0\n")
        assert run([command, "--config", str(cfg), "--data", str(data),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.search(r"ERROR 2: sigma_f 50\.0 at t=[\d.]+: filter side \d+ "
                         r"exceeds 16$", err, re.MULTILINE), err
        assert not (tmp_path / "out").exists()

    def test_grid_results_quote_an_error_with_a_comma(self, trained, tmp_path):
        # the overflow message names its step as "(subject ..., noise ...)"
        data, _ = trained
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("max_epochs = 2\nwidth_m = 8\n"
                       "lr_grid = 0.1,1e300\nlambda_grid = 0.0\n")
        out = tmp_path / "grid"
        assert run(["grid-search", "--config", str(cfg), "--data", str(data),
                    "--out", str(out), "--seed", "1"]) == 0
        with open(out / "grid_results.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert rows[1][5] == ""
        assert re.fullmatch(r"overflow encountered in \w+ at epoch 1 "
                            r"\(subject \w+, noise [\d.]+\)", rows[2][5]), rows[2]
        # a row without an error is written as before, unquoted
        assert '"' not in (out / "grid_results.csv").read_text().splitlines()[1]

    def test_grid_search_records_every_failed_cell(self, trained, tmp_path, capsys):
        # with no cell left to pick from, the file still holds each cell's error
        data, _ = trained
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("max_epochs = 2\nlr_grid = 1e300\nlambda_grid = 0.0,0.001\n")
        out = tmp_path / "grid"
        assert run(["grid-search", "--config", str(cfg), "--data", str(data),
                    "--out", str(out), "--seed", "1"]) == 3
        assert capsys.readouterr().err.endswith("ERROR 3: every grid cell failed\n")
        with open(out / "grid_results.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["learning_rate", "lambda_l2", "val_accuracy", "val_loss",
                          "test_accuracy", "error"]
        assert [row[:2] for row in rows] == [["1e+300", "0"], ["1e+300", "0.001"]]
        assert all(row[5] for row in rows)

    @pytest.mark.parametrize("split", ["train", "validation", "test"])
    def test_one_volume_group_refused_before_training(self, trained, tmp_path, capsys,
                                                      monkeypatch, split):
        # the classifier standardizes each group by its own statistics, so a
        # one-volume group in any split ends `train` at load, naming it
        data, _ = trained
        shutil.copytree(data, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.csv"
        header, *rows = manifest.read_text().splitlines()
        sid, noise = next(r.split(",")[2:4] for r in rows if r.endswith("," + split))
        group = [r for r in rows if r.split(",")[2:4] == [sid, noise]]
        manifest.write_text("\n".join([header, group[0], *(r for r in rows if r not in group)])
                            + "\n")
        steps = []
        monkeypatch.setattr(trainer, "batch_loss_and_grads",
                            lambda *args, **kwargs: steps.append(args))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("max_epochs = 2\nwidth_m = 8\n")
        assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                    "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err.endswith(
            f"ERROR 2: group ({sid}, {noise}) has 1 volume(s); "
            "batch standardization needs >= 2\n")
        assert steps == [] and not (tmp_path / "m").exists()

    def test_grid_search_writes_results(self, trained, tmp_path, capsys):
        data, _ = trained
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("max_epochs = 3\nwidth_m = 8\n"
                       "lr_grid = 0.01,0.1\nlambda_grid = 0.0\n")
        out = tmp_path / "grid"
        assert run(["grid-search", "--config", str(cfg), "--data", str(data),
                    "--out", str(out), "--seed", "1"]) == 0
        lines = (out / "grid_results.csv").read_text().splitlines()
        assert lines[0].startswith("learning_rate,lambda_l2,")
        assert len(lines) == 3
        assert "best: learning_rate=" in capsys.readouterr().out
        # the validation columns are those of each cell's best epoch
        batches = trainer.load_dataset(data / "manifest.csv")
        for line, lr in zip(lines[1:], (0.01, 0.1)):
            cfg = trainer.TrainConfig(learning_rate=lr, max_epochs=3, width_m=8, seed=1)
            _, _, report = trainer.train(cfg, batches)
            best = report.epochs[report.best_epoch - 1]
            assert best["epoch"] == report.best_epoch
            assert line.split(",")[2:4] == [f"{best['val_accuracy']:.6g}",
                                            f"{best['val_loss']:.6g}"]


class TestTextInputs:
    """Every text file the commands read is UTF-8 and every manifest row a
    readable one: each bad input exits 2 naming its file, with no traceback."""

    @pytest.fixture()
    def copies(self, trained, tmp_path):
        data, model = trained
        shutil.copytree(data, tmp_path / "data")
        shutil.copytree(model, tmp_path / "model")
        (tmp_path / "train.cfg").write_text("max_epochs = 2\nwidth_m = 8\n")
        (tmp_path / "spec.cfg").write_text(SMALL_SPEC)
        return tmp_path

    @staticmethod
    def _argv(root, name, split="test"):
        if name == "train.cfg":
            return ["train", "--config", str(root / name), "--data", str(root / "data"),
                    "--out", str(root / "out")]
        if name == "spec.cfg":
            return ["gen-phantom", "--spec", str(root / name), "--out", str(root / "out")]
        return ["evaluate", "--weights", str(root / "model"), "--data", str(root / "data"),
                "--split", split]

    @pytest.mark.parametrize("name", ["train.cfg", "spec.cfg", "data/manifest.csv",
                                      "model/params_net.txt", "model/classifier.txt",
                                      "model/config.txt"])
    def test_file_that_is_not_utf8_is_data_error(self, copies, capsys, name):
        bad = copies / name
        bad.write_bytes(bad.read_bytes() + b"# caf\xe9\n")
        assert run(self._argv(copies, name)) == 2
        err = capsys.readouterr().err
        assert f"ERROR 2: {bad}: not UTF-8 text (invalid continuation byte at byte " in err
        assert "Traceback" not in err and not (copies / "out").exists()

    @pytest.mark.parametrize("volume_path, message", [
        ("sub\0.vol", "NUL byte in volume path 'sub\\x00.vol'"),
        ("x" * 131073, "field larger than field limit (131072)"),
    ], ids=["nul-path", "field-over-limit"])
    def test_unreadable_manifest_row_is_data_error(self, copies, capsys, volume_path,
                                                   message):
        manifest = copies / "data" / "manifest.csv"
        rows = manifest.read_text().splitlines()
        last = rows[-1].split(",")
        manifest.write_text("\n".join([*rows, ",".join([volume_path, *last[1:]])]) + "\n")
        # the row's own split, so that the evaluation reads it
        assert run(self._argv(copies, "data/manifest.csv", last[4])) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"ERROR 2: {manifest}:{len(rows) + 1}: {message}\n")
        assert "Traceback" not in err


@pytest.fixture(scope="module", params=["fixed_sigma = 2.0", "truncation = 2.5"])
def saved_model(request, trained, tmp_path_factory):
    """A model trained by the CLI with a non-default config, and the same
    training run in-process from the config read back from its files."""
    data, _ = trained
    root = tmp_path_factory.mktemp("saved")
    cfg = root / "train.cfg"
    cfg.write_text(f"max_epochs = 8\nwidth_m = 8\n{request.param}\n")
    out = root / "model"
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out", str(out), "--seed", "43"]) == 0
    config = read_config(out / "config.txt", trainer.TrainConfig)
    # loaded as `train` loads it: a fixed width's data stays in voxels
    batches = trainer.load_dataset(data / "manifest.csv",
                                   features=config.fixed_sigma is None)
    return data, out, batches, config, trainer.train(config, batches)


class TestSavedConfig:
    """`evaluate` reads the training config saved beside the weights."""

    def test_evaluate_reproduces_summary(self, saved_model, capsys):
        data, out, *_ = saved_model
        capsys.readouterr()
        assert run(["evaluate", "--weights", str(out), "--data", str(data)]) == 0
        printed = capsys.readouterr().out.splitlines()
        summary = (out / "summary.txt").read_text().splitlines()
        # summary: a header line, a blank, the table, a blank, the accuracy
        assert printed[:-1] == summary[2:-2]
        assert printed[-1].split(": ")[1] == summary[-1].split(": ")[1]

    def test_library_evaluate_matches_report(self, saved_model):
        _, out, batches, config, (pnw, cw, report) = saved_model
        saved_pnw = params_net.load_weights(out / "params_net.txt")
        saved_cw, _ = classifier.load_weights(out / "classifier.txt")
        np.testing.assert_array_equal(saved_pnw.v, pnw.v)
        np.testing.assert_array_equal(saved_cw.w, cw.w)
        res = trainer.evaluate(saved_pnw, saved_cw, batches, "test", config)
        assert res["per_noise"] == report.per_noise
        assert res["accuracy"] == report.test_accuracy


@pytest.fixture(scope="module")
def fixed_model(trained, tmp_path_factory):
    """A model trained by the CLI with a fixed width (`fixed_sigma`)."""
    data, _ = trained
    root = tmp_path_factory.mktemp("fixed")
    cfg = root / "train.cfg"
    cfg.write_text("max_epochs = 3\nwidth_m = 8\nfixed_sigma = 1.2\n")
    out = root / "model"
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out", str(out), "--seed", "43"]) == 0
    return cfg, out


def _no_feature(x):
    raise AssertionError("noise feature computed")


class TestFeaturesOnlyWhereRead:
    """A fixed width never reads the noise features, so the commands that
    smooth with one load the data without them."""

    @pytest.mark.parametrize("fixed", ["--fixed-fwhm-mm", "fixed_sigma model"])
    def test_fixed_evaluate_computes_no_feature(self, trained, fixed_model, capsys,
                                                monkeypatch, fixed):
        data, model = trained
        argv = ["evaluate", "--weights", str(model), "--data", str(data),
                "--fixed-fwhm-mm", "8"]
        if fixed == "fixed_sigma model":
            argv = ["evaluate", "--weights", str(fixed_model[1]), "--data", str(data)]
        assert run(argv) == 0
        clean = capsys.readouterr().out
        monkeypatch.setattr(params_net, "noise_feature", _no_feature)
        assert run(argv) == 0
        assert capsys.readouterr().out == clean

    def test_adaptive_evaluate_computes_features(self, trained, capsys, monkeypatch):
        data, model = trained
        calls = []
        feature = params_net.noise_feature

        def counted(x):
            calls.append(1)
            return feature(x)

        monkeypatch.setattr(params_net, "noise_feature", counted)
        assert run(["evaluate", "--weights", str(model), "--data", str(data)]) == 0
        manifest = read_manifest(data / "manifest.csv")
        assert len(calls) == sum(manifest.split[e.subject_id] == "test"
                                 for e in manifest.entries) == 12

    def test_fixed_train_computes_no_feature(self, trained, fixed_model, tmp_path,
                                             monkeypatch):
        data, _ = trained
        cfg, model = fixed_model
        monkeypatch.setattr(params_net, "noise_feature", _no_feature)
        out = tmp_path / "model"
        assert run(["train", "--config", str(cfg), "--data", str(data),
                    "--out", str(out), "--seed", "43"]) == 0
        for name in ("params_net.txt", "classifier.txt", "summary.txt"):
            assert (out / name).read_bytes() == (model / name).read_bytes()


class TestParsing:
    def test_one_parser_serves_a_sequence_of_commands(self, trained, capsys):
        # one process parses each command with the parser it built first: a
        # usage error, then two commands, give the exit codes and output of
        # a fresh process each
        data, model = trained
        argvs = [["evaluate", "--weights", str(model)],
                 ["inspect-filter", "--sigma-f", "0.6"],
                 ["evaluate", "--weights", str(model), "--data", str(data)]]
        src = str(Path(adaptsmooth.__file__).resolve().parents[1])
        alone = []
        for argv in argvs:
            result = subprocess.run([sys.executable, "-m", "adaptsmooth.cli", *argv],
                                    env={**os.environ, "PYTHONPATH": src},
                                    capture_output=True, text=True, timeout=120)
            alone.append((result.returncode, result.stdout, result.stderr))
        together = []
        for argv in argvs:
            code = run(argv)
            out = capsys.readouterr()
            together.append((code, out.out, out.err))
        assert [code for code, _, _ in together] == [1, 0, 0]
        assert together == alone

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "ERROR 1" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["gen-phantom"]) == 1

    def test_bad_phantom_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("wibble = 3\n")
        assert run(["gen-phantom", "--spec", str(spec),
                    "--out", str(tmp_path / "d")]) == 2
        assert "unknown key" in capsys.readouterr().err

    # False: no --out; True: --out holds one file; "dataset": --out holds a
    # dataset whose file names the failing call writes too
    @pytest.mark.parametrize("existing", [False, True, "dataset"])
    def test_failed_gen_phantom_leaves_out_as_found(self, tmp_path, capsys, existing):
        out = tmp_path / "out"
        spec = tmp_path / "spec.cfg"
        if existing == "dataset":
            spec.write_text(SMALL_SPEC)
            assert run(["gen-phantom", "--spec", str(spec), "--out", str(out),
                        "--seed", "3"]) == 0
        elif existing:
            out.mkdir()
            (out / "keep.txt").write_text("kept")
        found = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        # the first noisy volume cannot be written, after the noise-free one was
        spec.write_text(f"{SMALL_SPEC}noise_levels = 0,1e300\n")
        assert run(["gen-phantom", "--spec", str(spec), "--out", str(out),
                    "--seed", "4"]) == 2
        assert "ERROR 2" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["out", "spec.cfg"] if existing else ["spec.cfg"])
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == found

    @pytest.mark.parametrize("command, line", [
        ("train", "max_epochs = 0"),
        ("train", "patience = 0"),
        ("train", "truncation = 0"),
        ("train", "truncation = nan"),
        ("train", "learning_rate = nan"),
        ("train", "lambda_l2 = inf"),
        # a key of the stochastic width bump, which no longer exists
        ("train", "fixed_sigma = 1.0\nbump_probability = 1.5"),
        ("train", "fixed_sigma = nan"),
        ("train", "seed = -1"),
        # the head's range starts at 1.5e300, whose cube overflows float64
        ("train", "truncation = 1e-300"),
        ("gen-phantom", "dims = 16,16"),
        ("gen-phantom", "split_counts = 2,1,1,0"),
        ("gen-phantom", "jitter_voxels = -1"),
        ("gen-phantom", "blob_radius = 0"),
        ("gen-phantom", "amplitude = nan"),
        ("gen-phantom", "noise_levels = 0,nan"),
        ("gen-phantom", "dims = 16,16,2"),
        ("gen-phantom", "split_counts = 3,1,0"),
        ("gen-phantom", "voxel_size_mm = nan"),
        ("gen-phantom", "voxel_size_mm = inf"),
        ("gen-phantom", "voxel_size_mm = 1e39"),
        ("gen-phantom", "noise_levels = 0,1e300"),
        ("gen-phantom", "noise_levels = 0.1,0.1000001"),
        ("grid-search", "lr_grid = 0.1,nan"),
        ("grid-search", "lr_grid = 0.1,-1"),
        ("grid-search", "lr_grid = nan"),
        ("grid-search", "lambda_grid = 0,inf"),
    ])
    def test_bad_config_value_is_data_error(self, trained, tmp_path, capsys,
                                            command, line):
        data, _ = trained
        cfg = tmp_path / "bad.cfg"
        if command in ("train", "grid-search"):
            cfg.write_text(f"max_epochs = 2\nwidth_m = 8\n{line}\n")
            argv = [command, "--config", str(cfg), "--data", str(data)]
        else:
            cfg.write_text(f"{SMALL_SPEC}{line}\n")
            argv = ["gen-phantom", "--spec", str(cfg)]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "ERROR 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
