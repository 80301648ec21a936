"""Tests for the task schema layer: specs, YAML-subset parser, validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SchemaError
from repro.schema import (
    EnvironmentSpec,
    FileSpec,
    QosSpec,
    ResourceSpec,
    TaskSpec,
    ensure_valid,
    parse_task_text,
    parse_workflow_text,
    parse_yaml_subset,
    spec_from_dict,
    validate_spec,
)
from repro.workload import JobTier


class TestFileSpec:
    def test_of_bytes(self):
        spec = FileSpec.of_bytes("train.py", b"print()\n")
        assert spec.size_bytes == 8
        assert len(spec.sha256) == 64

    @pytest.mark.parametrize("path", ["/abs/path.py", "", "../escape.py", "a/../b.py"])
    def test_bad_paths(self, path):
        with pytest.raises(SchemaError):
            FileSpec(path=path, size_bytes=1, sha256="0" * 64)

    def test_bad_hash(self):
        with pytest.raises(SchemaError, match="sha256"):
            FileSpec(path="x.py", size_bytes=1, sha256="nothex")


class TestEnvironmentSpec:
    def test_fingerprint_stable_and_order_independent(self):
        a = EnvironmentSpec(pip_packages=("torch==2.1", "numpy==1.26"))
        b = EnvironmentSpec(pip_packages=("numpy==1.26", "torch==2.1"))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_content(self):
        a = EnvironmentSpec(image="pytorch:2.1")
        b = EnvironmentSpec(image="pytorch:2.2")
        assert a.fingerprint() != b.fingerprint()

    def test_bad_python_version(self):
        with pytest.raises(SchemaError):
            EnvironmentSpec(python_version="three")

    def test_bad_env_var_name(self):
        with pytest.raises(SchemaError):
            EnvironmentSpec(env_vars={"BAD NAME": "x"})

    def test_bad_pip_spec(self):
        with pytest.raises(SchemaError):
            EnvironmentSpec(pip_packages=("torch ==2.1",))


class TestResourceAndQos:
    def test_to_request(self):
        spec = ResourceSpec(num_gpus=16, gpus_per_node=8, gpu_type="v100")
        request = spec.to_request()
        assert request.num_gpus == 16
        assert request.gpus_per_node == 8

    def test_resource_validation(self):
        with pytest.raises(SchemaError):
            ResourceSpec(num_gpus=0)
        with pytest.raises(SchemaError):
            ResourceSpec(num_gpus=12, gpus_per_node=8)
        with pytest.raises(SchemaError):
            ResourceSpec(walltime_hours=0)

    def test_qos_tier(self):
        assert QosSpec(tier="opportunistic").job_tier is JobTier.OPPORTUNISTIC
        with pytest.raises(SchemaError, match="valid tiers"):
            QosSpec(tier="platinum")


class TestTaskSpec:
    def minimal(self, **kwargs):
        defaults = dict(name="demo", entrypoint="python train.py")
        defaults.update(kwargs)
        return TaskSpec(**defaults)

    def test_name_rules(self):
        with pytest.raises(SchemaError):
            self.minimal(name="1starts-with-digit")
        with pytest.raises(SchemaError):
            self.minimal(name="has spaces")
        self.minimal(name="ok-name.v2_final")

    def test_empty_entrypoint(self):
        with pytest.raises(SchemaError):
            self.minimal(entrypoint="   ")

    def test_duplicate_paths_rejected(self):
        file_spec = FileSpec.of_bytes("a.py", b"x")
        with pytest.raises(SchemaError, match="duplicate"):
            self.minimal(code_files=(file_spec,), datasets=(file_spec,))

    def test_fingerprint_sensitive_to_fields(self):
        a = self.minimal()
        b = self.minimal(entrypoint="python other.py")
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == self.minimal().fingerprint()

    def test_multi_node_property(self):
        single = self.minimal(resources=ResourceSpec(num_gpus=8))
        multi = self.minimal(resources=ResourceSpec(num_gpus=16, gpus_per_node=8))
        assert not single.multi_node
        assert multi.multi_node


YAML_DOC = """
# A task file
name: bert-pretrain
entrypoint: "python train.py --epochs 3"
model: bert-large
resources:
  num_gpus: 16
  gpus_per_node: 8
  gpu_type: a100-80
  walltime_hours: 48.0
environment:
  image: pytorch/pytorch:2.1
  pip_packages:
    - transformers==4.30.0
    - datasets==2.13.0
  env_vars:
    NCCL_DEBUG: INFO
qos:
  tier: guaranteed
code_files:
  - path: train.py
    size_bytes: 4096
    sha256: {sha}
""".format(sha="a" * 64)


class TestYamlSubset:
    def test_scalars(self):
        doc = parse_yaml_subset(
            "a: 1\nb: 2.5\nc: true\nd: false\ne: null\nf: hello\ng: 'quoted # not comment'\n"
        )
        assert doc == {
            "a": 1, "b": 2.5, "c": True, "d": False, "e": None,
            "f": "hello", "g": "quoted # not comment",
        }

    def test_nested_mapping_and_lists(self):
        doc = parse_yaml_subset("outer:\n  inner:\n    x: 1\n  items:\n    - 1\n    - two\n")
        assert doc == {"outer": {"inner": {"x": 1}, "items": [1, "two"]}}

    def test_list_of_mappings(self):
        doc = parse_yaml_subset("files:\n  - path: a.py\n    size: 3\n  - path: b.py\n    size: 4\n")
        assert doc == {"files": [{"path": "a.py", "size": 3}, {"path": "b.py", "size": 4}]}

    def test_comments_and_blanks_ignored(self):
        doc = parse_yaml_subset("# header\n\na: 1  # trailing\n\n")
        assert doc == {"a": 1}

    def test_empty_document(self):
        assert parse_yaml_subset("") == {}
        assert parse_yaml_subset("# only comments\n") == {}

    def test_key_with_no_value_is_none(self):
        assert parse_yaml_subset("a:\nb: 1\n") == {"a": None, "b": 1}

    def test_tabs_rejected(self):
        with pytest.raises(SchemaError, match="tabs"):
            parse_yaml_subset("a:\n\tb: 1\n")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SchemaError, match="duplicate key"):
            parse_yaml_subset("a: 1\na: 2\n")

    def test_error_carries_line_number(self):
        with pytest.raises(SchemaError, match="line 2"):
            parse_yaml_subset("a: 1\nnot a kv pair\n")

    @settings(max_examples=50, deadline=None)
    @given(st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.booleans())
    def test_scalar_roundtrip(self, value):
        parsed = parse_yaml_subset(f"key: {value!r}\n")["key"]
        assert parsed == value


class TestSpecParsing:
    def test_full_yaml_document(self):
        spec = parse_task_text(YAML_DOC)
        assert spec.name == "bert-pretrain"
        assert spec.resources.num_gpus == 16
        assert spec.environment.pip_packages == ("transformers==4.30.0", "datasets==2.13.0")
        assert spec.environment.env_vars == {"NCCL_DEBUG": "INFO"}
        assert spec.qos.job_tier is JobTier.GUARANTEED
        assert spec.code_files[0].path == "train.py"

    def test_json_document(self):
        data = {"name": "t", "entrypoint": "python x.py", "resources": {"num_gpus": 2}}
        spec = parse_task_text(json.dumps(data))
        assert spec.resources.num_gpus == 2

    def test_missing_required_field(self):
        with pytest.raises(SchemaError, match="entrypoint"):
            spec_from_dict({"name": "t"})

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            spec_from_dict({"name": "t", "entrypoint": "x", "gpus": 4})

    def test_unknown_nested_key(self):
        with pytest.raises(SchemaError, match="resources"):
            spec_from_dict(
                {"name": "t", "entrypoint": "x", "resources": {"gpu_count": 4}}
            )

    def test_parse_task_file(self, tmp_path):
        path = tmp_path / "task.yaml"
        path.write_text(YAML_DOC)
        from repro.schema import parse_task_file

        assert parse_task_file(path).name == "bert-pretrain"


WORKFLOW_DOC = """
workflow: nightly-rag
stages:
  - name: ingest
    entrypoint: python ingest.py
  - name: evaluate
    entrypoint: python eval.py
    consumes:
      - corpus
    resources:
      num_gpus: 2
      walltime_hours: 1.5
artifacts:
  - name: corpus
    producer: ingest
    size_bytes: 1073741824
"""

#: Any JSON value, the numbers unbounded (NaN, infinities and ints too
#: large for a float included).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

#: One character edit of a document: (position, operation, character).
TEXT_EDITS = st.tuples(
    st.integers(min_value=0),
    st.sampled_from(["delete", "insert", "replace"]),
    st.sampled_from(list(" :-#\n'\"{}[]0123456789.eE+~atx")),
)

PARSERS = {"task": (YAML_DOC, parse_task_text), "workflow": (WORKFLOW_DOC, parse_workflow_text)}


def _paths(node, prefix=()):
    """Every path into a parsed document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _parse_or_typed_error(parse, text):
    """Parse *text*; only the library's own errors may escape."""
    try:
        parse(text)
    except ReproError:
        pass


class TestTypedParseErrors:
    @pytest.mark.parametrize(
        "value, shown", [("two", "'two'"), ("", "None"), ("1e999", "inf"), ("true", "True")]
    )
    def test_bad_gpu_count_names_the_field(self, value, shown):
        text = f"name: t\nentrypoint: x\nresources:\n  num_gpus: {value}\n"
        message = rf"resources\.num_gpus must be an integer, got {shown}"
        with pytest.raises(SchemaError, match=message):
            parse_task_text(text)

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"resources": {"gpus_per_node": [8]}}, r"resources\.gpus_per_node"),
            ({"resources": {"cpus_per_gpu": "four"}}, r"resources\.cpus_per_gpu"),
            ({"resources": {"memory_gb_per_gpu": float("nan")}}, r"resources\.memory_gb_per_gpu"),
            ({"resources": {"walltime_hours": "1e999"}}, r"resources\.walltime_hours"),
            (
                {"code_files": [{"path": "a.py", "size_bytes": "big", "sha256": "a" * 64}]},
                r"code_files\[0\]\.size_bytes",
            ),
            ({"resources": 4}, r"resources must be a mapping"),
            ({"environment": {"env_vars": ["A=1"]}}, r"environment\.env_vars must be a mapping"),
        ],
    )
    def test_each_field_reports_its_path(self, data, field):
        with pytest.raises(SchemaError, match=field):
            spec_from_dict({"name": "t", "entrypoint": "x", **data})

    def test_artifact_size_reports_its_path(self):
        text = WORKFLOW_DOC.replace("size_bytes: 1073741824", "size_bytes: 1e999")
        with pytest.raises(SchemaError, match=r"artifacts\[0\]\.size_bytes"):
            parse_workflow_text(text)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(PARSERS)), st.data())
    def test_value_mutations_raise_only_typed_errors(self, which, data):
        text, parse = PARSERS[which]
        document = parse_yaml_subset(text)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            path = data.draw(st.sampled_from(list(_paths(document))))
            value = data.draw(JSON_VALUES)
            if not path:
                document = value
                continue
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        _parse_or_typed_error(parse, json.dumps(document))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(PARSERS)), st.lists(TEXT_EDITS, min_size=1, max_size=4))
    def test_text_mutations_raise_only_typed_errors(self, which, edits):
        text, parse = PARSERS[which]
        chars = list(text)
        for position, operation, char in edits:
            position %= len(chars) + 1
            if operation == "insert":
                chars.insert(position, char)
            elif position < len(chars):
                if operation == "delete":
                    del chars[position]
                else:
                    chars[position] = char
        _parse_or_typed_error(parse, "".join(chars))


class TestSemanticValidation:
    def test_unknown_model_is_error(self):
        spec = TaskSpec(name="t", entrypoint="x", model="skynet")
        issues = validate_spec(spec)
        assert any(i.severity == "error" and i.field == "model" for i in issues)

    def test_low_memory_is_warning(self):
        spec = TaskSpec(
            name="t",
            entrypoint="x",
            model="gpt2-xl",
            resources=ResourceSpec(memory_gb_per_gpu=8.0),
        )
        issues = validate_spec(spec)
        assert any(i.severity == "warning" for i in issues)

    def test_cluster_gpu_type_check(self, tacc_cluster):
        spec = TaskSpec(
            name="t", entrypoint="x", resources=ResourceSpec(gpu_type="t4")
        )
        issues = validate_spec(spec, tacc_cluster)
        assert any("no 't4' nodes" in str(i) for i in issues)

    def test_oversized_request_rejected(self, tacc_cluster):
        spec = TaskSpec(
            name="t",
            entrypoint="x",
            resources=ResourceSpec(num_gpus=64, gpus_per_node=8, gpu_type="a100-80"),
        )
        with pytest.raises(SchemaError, match="failed validation"):
            ensure_valid(spec, tacc_cluster)

    def test_partition_admission(self, tacc_cluster):
        spec = TaskSpec(
            name="t",
            entrypoint="x",
            resources=ResourceSpec(num_gpus=8, walltime_hours=100.0, partition="a100"),
        )
        issues = validate_spec(spec, tacc_cluster)
        assert any("caps at" in str(i) for i in issues)

    def test_valid_spec_passes(self, tacc_cluster):
        spec = TaskSpec(
            name="t",
            entrypoint="x",
            model="resnet50",
            resources=ResourceSpec(num_gpus=8, gpu_type="v100"),
        )
        warnings = ensure_valid(spec, tacc_cluster)
        assert warnings == []


class TestRdmaSemantics:
    def test_multi_node_without_rdma_warns(self, tacc_cluster):
        spec = TaskSpec(
            name="t",
            entrypoint="x",
            resources=ResourceSpec(num_gpus=16, gpus_per_node=8, gpu_type="v100"),
        )
        issues = validate_spec(spec, tacc_cluster)
        assert any(i.field == "resources.rdma" and i.severity == "warning" for i in issues)

    def test_rdma_request_silences_warning(self, tacc_cluster):
        spec = TaskSpec(
            name="t",
            entrypoint="x",
            resources=ResourceSpec(num_gpus=16, gpus_per_node=8, gpu_type="v100", rdma=True),
        )
        issues = validate_spec(spec, tacc_cluster)
        assert not any(i.field == "resources.rdma" for i in issues)

    def test_single_node_needs_no_rdma(self, tacc_cluster):
        spec = TaskSpec(
            name="t", entrypoint="x", resources=ResourceSpec(num_gpus=8, gpu_type="v100")
        )
        issues = validate_spec(spec, tacc_cluster)
        assert not any(i.field == "resources.rdma" for i in issues)

    def test_compiler_sets_transport_env(self):
        from repro.compiler import TaskCompiler
        from repro.tcloud.frontend import synthesize_workspace

        for rdma, expected in ((True, "0"), (False, "1")):
            spec = TaskSpec(
                name="t",
                entrypoint="x",
                resources=ResourceSpec(num_gpus=16, gpus_per_node=8, rdma=rdma),
            )
            result = TaskCompiler().compile(spec, synthesize_workspace(spec))
            assert result.instruction.env_vars["NCCL_IB_DISABLE"] == expected
